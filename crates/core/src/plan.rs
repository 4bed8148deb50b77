//! Query plans and their evaluation.
//!
//! A query plan (paper §2) "consists of a set of tables (i.e. base tables
//! and/or replicas) to be used to evaluate Q as well as the time Q is to
//! be executed". Here a candidate plan is the pair *(execute_at,
//! local_tables)*: the tables in `local_tables` are read from the DSS
//! replicas, everything else from remote base tables, and execution is
//! released at `execute_at` (`> submitted_at` for the delayed plans of
//! Fig. 2, which wait for a future synchronization).
//!
//! [`evaluate_plan`] turns a candidate into a full [`PlanEvaluation`]:
//! queuing (from a [`QueueEstimator`]), processing/transmission (from the
//! cost model), data-version timestamps (from the synchronization
//! timelines), the CL/SL pair, and finally the information value.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_costmodel::model::{CostModel, PlanCost};
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::facility::Calendar;
use ivdss_simkernel::time::{SimDuration, SimTime};

use crate::latency::Latencies;
use crate::value::{BusinessValue, DiscountRate, DiscountRates, InformationValue};

/// A query submitted to the DSS: its footprint plus the user-assigned
/// business value and submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query's footprint and cost profile.
    pub query: QuerySpec,
    /// The business value the user assigned to the report.
    pub business_value: BusinessValue,
    /// When the query entered the system.
    pub submitted_at: SimTime,
}

impl QueryRequest {
    /// Creates a request with unit business value.
    #[must_use]
    pub fn new(query: QuerySpec, submitted_at: SimTime) -> Self {
        QueryRequest {
            query,
            business_value: BusinessValue::UNIT,
            submitted_at,
        }
    }

    /// Sets the business value (builder-style).
    #[must_use]
    pub fn with_business_value(mut self, bv: BusinessValue) -> Self {
        self.business_value = bv;
        self
    }

    /// The query's id.
    #[must_use]
    pub fn id(&self) -> QueryId {
        self.query.id()
    }
}

/// Estimates queuing delay at the servers a plan touches.
///
/// Planners consult this before committing work; the end-to-end simulator
/// implements it from live [`Calendar`] state, while analytic studies can
/// use [`NoQueues`]. The delay depends on the amount of work (`service`)
/// because reservation calendars backfill: a short job may fit an idle gap
/// a long job cannot.
///
/// The `Send + Sync` supertraits let planners probe queue state from
/// worker threads ([`crate::parallel::PlannerPool`]); estimators are
/// consulted immutably during a search, so implementations built from
/// plain data satisfy them automatically.
pub trait QueueEstimator: Send + Sync {
    /// Queuing delay at the local federation server for `service` worth of
    /// work released at `at`.
    fn local_delay(&self, at: SimTime, service: SimDuration) -> SimDuration;

    /// Queuing delay at remote `site` for a subquery of length `service`
    /// released at `at`.
    fn remote_delay(&self, site: SiteId, at: SimTime, service: SimDuration) -> SimDuration;
}

/// A queue estimator that reports empty queues everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoQueues;

impl QueueEstimator for NoQueues {
    fn local_delay(&self, _at: SimTime, _service: SimDuration) -> SimDuration {
        SimDuration::ZERO
    }

    fn remote_delay(&self, _site: SiteId, _at: SimTime, _service: SimDuration) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Queue estimates backed by per-server reservation [`Calendar`]s: the
/// delay is the wait until the earliest gap that fits the work. Delayed
/// plans reserve future windows without blocking the idle time before
/// them — later, shorter work backfills.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FacilityQueues {
    local: Calendar,
    remotes: Vec<Calendar>,
}

impl FacilityQueues {
    /// Creates estimators for one local server and `sites` remote servers.
    #[must_use]
    pub fn new(sites: usize) -> Self {
        FacilityQueues {
            local: Calendar::new(),
            remotes: vec![Calendar::new(); sites],
        }
    }

    /// Mutable access to the local federation server calendar.
    pub fn local_mut(&mut self) -> &mut Calendar {
        &mut self.local
    }

    /// The local federation server calendar.
    #[must_use]
    pub fn local(&self) -> &Calendar {
        &self.local
    }

    /// Mutable access to a remote site's calendar.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn remote_mut(&mut self, site: SiteId) -> &mut Calendar {
        &mut self.remotes[site.index()]
    }

    /// A remote site's calendar.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn remote(&self, site: SiteId) -> &Calendar {
        &self.remotes[site.index()]
    }
}

impl QueueEstimator for FacilityQueues {
    fn local_delay(&self, at: SimTime, service: SimDuration) -> SimDuration {
        self.local.probe(at, service).queue_delay(at)
    }

    fn remote_delay(&self, site: SiteId, at: SimTime, service: SimDuration) -> SimDuration {
        self.remotes[site.index()]
            .probe(at, service)
            .queue_delay(at)
    }
}

/// A [`QueueEstimator`] decorator that imposes *release floors* on remote
/// sites: a floored site accepts no work before its floor (e.g. an outage
/// ends there), so the reported delay first waits out the floor and then
/// pays whatever queue exists at the floor itself. Local delays pass
/// through untouched — the local federation server is not a remote site.
///
/// Planners given a floored estimator naturally steer around down sites:
/// remote plan options absorb the outage as queuing delay (lowering their
/// IV), so replica-only options win whenever the outage outlasts the
/// staleness they pay.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use ivdss_catalog::ids::SiteId;
/// use ivdss_core::plan::{NoQueues, QueueEstimator, SiteFloors};
/// use ivdss_simkernel::time::{SimDuration, SimTime};
///
/// let floors: BTreeMap<SiteId, SimTime> =
///     [(SiteId::new(0), SimTime::new(30.0))].into_iter().collect();
/// let q = SiteFloors::new(&NoQueues, floors);
/// // Work released at t=10 against a site down until t=30 waits 20.
/// assert_eq!(
///     q.remote_delay(SiteId::new(0), SimTime::new(10.0), SimDuration::new(1.0)),
///     SimDuration::new(20.0)
/// );
/// // After recovery the floor is inert.
/// assert_eq!(
///     q.remote_delay(SiteId::new(0), SimTime::new(31.0), SimDuration::new(1.0)),
///     SimDuration::ZERO
/// );
/// ```
#[derive(Clone)]
pub struct SiteFloors<'a> {
    inner: &'a dyn QueueEstimator,
    floors: std::collections::BTreeMap<SiteId, SimTime>,
}

impl fmt::Debug for SiteFloors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteFloors")
            .field("floors", &self.floors)
            .finish_non_exhaustive()
    }
}

impl<'a> SiteFloors<'a> {
    /// Wraps `inner`, holding each listed site closed until its floor.
    #[must_use]
    pub fn new(
        inner: &'a dyn QueueEstimator,
        floors: std::collections::BTreeMap<SiteId, SimTime>,
    ) -> Self {
        SiteFloors { inner, floors }
    }

    /// Returns `true` if no site is floored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.floors.is_empty()
    }

    /// The floor of `site`, if it has one in the future of `at`.
    #[must_use]
    pub fn floor_after(&self, site: SiteId, at: SimTime) -> Option<SimTime> {
        self.floors.get(&site).copied().filter(|&f| f > at)
    }
}

impl QueueEstimator for SiteFloors<'_> {
    fn local_delay(&self, at: SimTime, service: SimDuration) -> SimDuration {
        self.inner.local_delay(at, service)
    }

    fn remote_delay(&self, site: SiteId, at: SimTime, service: SimDuration) -> SimDuration {
        match self.floor_after(site, at) {
            Some(floor) => (floor - at) + self.inner.remote_delay(site, floor, service),
            None => self.inner.remote_delay(site, at, service),
        }
    }
}

/// Everything a planner needs to evaluate candidate plans.
pub struct PlanContext<'a> {
    /// The catalog (tables, placement, replication plan).
    pub catalog: &'a Catalog,
    /// Synchronization timelines of the replicated tables.
    pub timelines: &'a SyncTimelines,
    /// The computational-latency model.
    pub model: &'a dyn CostModel,
    /// Discount rates applied to CL and SL.
    pub rates: DiscountRates,
    /// Queue state of the involved servers.
    pub queues: &'a dyn QueueEstimator,
}

impl fmt::Debug for PlanContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanContext")
            .field("tables", &self.catalog.table_count())
            .field("sites", &self.catalog.site_count())
            .field("replicas", &self.timelines.len())
            .field("rates", &self.rates)
            .finish_non_exhaustive()
    }
}

/// Error evaluating or selecting a plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// A table was requested from the local replica store but has no
    /// replica.
    NotReplicated {
        /// The table lacking a replica.
        table: TableId,
    },
    /// The plan's release time precedes the query's submission.
    ExecutesBeforeSubmission {
        /// The offending release time.
        execute_at: SimTime,
        /// The submission time.
        submitted_at: SimTime,
    },
    /// The plan references a table outside the query's footprint.
    OutsideFootprint {
        /// The offending table.
        table: TableId,
    },
    /// No feasible plan exists (e.g. a warehouse planner on a query whose
    /// footprint is not fully replicated).
    NoFeasiblePlan {
        /// The query that could not be planned.
        query: QueryId,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NotReplicated { table } => {
                write!(f, "table {table} has no local replica")
            }
            PlanError::ExecutesBeforeSubmission {
                execute_at,
                submitted_at,
            } => write!(
                f,
                "plan executes at {execute_at} before submission at {submitted_at}"
            ),
            PlanError::OutsideFootprint { table } => {
                write!(f, "table {table} is outside the query footprint")
            }
            PlanError::NoFeasiblePlan { query } => {
                write!(f, "no feasible plan for query {query}")
            }
        }
    }
}

impl Error for PlanError {}

/// A fully evaluated query plan: the choice, its timing, latencies and
/// information value.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEvaluation {
    /// The planned query.
    pub query: QueryId,
    /// Tables read from local replicas; the rest of the footprint is read
    /// from remote base tables.
    pub local_tables: BTreeSet<TableId>,
    /// When execution is released (submission time, or a future
    /// synchronization point for delayed plans).
    pub execute_at: SimTime,
    /// When processing actually starts (release + queuing).
    pub service_start: SimTime,
    /// When the result is received.
    pub finish: SimTime,
    /// The stalest timestamp among the data the plan read.
    pub data_version: SimTime,
    /// The computational/synchronization latency pair.
    pub latencies: Latencies,
    /// The delivered information value.
    pub information_value: InformationValue,
    /// The cost-model components (processing + transmission, no queuing).
    pub cost: PlanCost,
}

impl PlanEvaluation {
    /// `true` if the plan reads every footprint table from replicas.
    #[must_use]
    pub fn is_all_local(&self, query: &QuerySpec) -> bool {
        self.local_tables.len() == query.table_count()
    }

    /// `true` if the plan reads every footprint table remotely.
    #[must_use]
    pub fn is_all_remote(&self) -> bool {
        self.local_tables.is_empty()
    }

    /// `true` if the plan delays execution past submission (Fig. 2).
    #[must_use]
    pub fn is_delayed(&self, submitted_at: SimTime) -> bool {
        self.execute_at > submitted_at
    }
}

/// The numeric result of scoring one candidate plan: every timing and
/// value field of a [`PlanEvaluation`] except the identity (query id and
/// local-table set), which the caller carries separately. Plain `Copy`
/// data, so the search hot path moves scores through arenas, caches and
/// worker threads without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// When execution is released.
    pub execute_at: SimTime,
    /// When processing actually starts (release + queuing).
    pub service_start: SimTime,
    /// When the result is received.
    pub finish: SimTime,
    /// The stalest timestamp among the data the plan read.
    pub data_version: SimTime,
    /// The computational/synchronization latency pair.
    pub latencies: Latencies,
    /// The delivered information value.
    pub information_value: InformationValue,
    /// The cost-model components (processing + transmission, no queuing).
    pub cost: PlanCost,
    /// How many footprint tables the plan reads locally (the last
    /// [`is_better`](crate::search::is_better) tie-break).
    pub local_len: u32,
}

impl CandidateScore {
    /// Materializes the full [`PlanEvaluation`] this score summarizes.
    /// `local_tables` must be the local set the score was computed for.
    #[must_use]
    pub fn into_evaluation(
        self,
        query: QueryId,
        local_tables: BTreeSet<TableId>,
    ) -> PlanEvaluation {
        PlanEvaluation {
            query,
            local_tables,
            execute_at: self.execute_at,
            service_start: self.service_start,
            finish: self.finish,
            data_version: self.data_version,
            latencies: self.latencies,
            information_value: self.information_value,
            cost: self.cost,
        }
    }
}

/// The shared scoring kernel: one candidate, timing model steps 2–5 of
/// [`evaluate_plan`]. Both the boxed evaluation path and the arena hot
/// path funnel through this function, with identical operation order, so
/// their floating-point results are bit-identical by construction.
///
/// `versions` yields the data version of each of the `local_len` local
/// tables in ascending table order (data-version minimization folds them
/// in that order), `sites` must be the ascending sites spanned by the
/// remote reads (empty iff every table is read locally), and `cost` the
/// cost-model estimate for that split.
fn score_candidate(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    execute_at: SimTime,
    versions: impl Iterator<Item = SimTime>,
    local_len: usize,
    sites: &[SiteId],
    cost: PlanCost,
) -> CandidateScore {
    // Queuing: the local federation server always participates (for the
    // plan's local work and result reception); remote sites participate
    // when the plan reads base tables there.
    let mut queue_delay = ctx.queues.local_delay(execute_at, cost.local_service());
    for &site in sites {
        queue_delay = queue_delay.max(ctx.queues.remote_delay(
            site,
            execute_at,
            cost.remote_processing,
        ));
    }
    let service_start = execute_at + queue_delay;
    let finish = service_start + cost.total();

    // Data versions: replicas carry their last sync at release time; base
    // tables are effectively stamped at processing start.
    let mut data_version = if sites.is_empty() {
        SimTime::MAX
    } else {
        service_start
    };
    for version in versions {
        data_version = data_version.min(version);
    }

    let latencies = Latencies::from_timing(request.submitted_at, finish, data_version);
    let information_value = InformationValue::compute(request.business_value, ctx.rates, latencies);

    CandidateScore {
        execute_at,
        service_start,
        finish,
        data_version,
        latencies,
        information_value,
        cost,
        local_len: u32::try_from(local_len).expect("footprint fits in u32"),
    }
}

/// Relative slack [`IvCeilings`] widen every ceiling by before comparing
/// it with an incumbent's IV. A ceiling is a product of three discount
/// factors where the kernel takes one `powf` per discount, and the
/// kernel's latencies are differences of rounded absolute times, so a
/// score can sit a few ulps above the exact ceiling; this margin covers
/// that gap many times over. (The rounding of absolute times grows with
/// their magnitude, so [`IvCeilings::release`] adds a term proportional
/// to the release time on top.)
const CEILING_MARGIN: f64 = 1e-9;

/// Upper bounds on the information value each row of a [`SubsetArena`]
/// can deliver, for dropping candidates that cannot win a comparison
/// without scoring them.
///
/// Take a row whose processing and transmission cost `c` is released at
/// `τ ≥ s`, the submit instant. Queuing delays are never negative, so it
/// starts service at `τ + q ≥ τ` and finishes at `τ + q + c`, hence
/// `CL ≥ τ − s + c`. Every data version it reads is at or before its
/// service start (a replica carries its last sync at or before `τ`, a
/// base table is stamped at the service start), hence `SL ≥ c`. Both
/// discount factors fall as their latency grows, so
///
/// ```text
/// IV ≤ BV · (1 − λ_CL)^(τ − s + c) · (1 − λ_SL)^c
///    = [BV · (1 − λ_CL)^(τ − s)] · [(1 − λ_CL)^c · (1 − λ_SL)^c].
/// ```
///
/// The first factor is shared by every row released at `τ`
/// ([`IvCeilings::release`]); the second depends on the row alone and is
/// computed once here, so checking a row costs one multiplication. A
/// ceiling only falls as `τ` grows: a row whose ceiling is below an
/// incumbent's IV stays below it at every later release time, for as
/// long as the incumbent only improves.
///
/// # Examples
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
/// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest, SubsetArena};
/// use ivdss_core::search::replicated_footprint;
/// use ivdss_core::value::DiscountRates;
/// use ivdss_costmodel::model::StylizedCostModel;
/// use ivdss_costmodel::query::{QueryId, QuerySpec};
/// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
/// use ivdss_simkernel::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = synthetic_catalog(&SyntheticConfig {
///     tables: 3, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
/// })?;
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(0), ReplicaSpec::new(6.0));
/// let catalog = base.with_replication(plan)?;
/// let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
/// let model = StylizedCostModel::paper_fig4();
/// let ctx = PlanContext {
///     catalog: &catalog,
///     timelines: &timelines,
///     model: &model,
///     rates: DiscountRates::new(0.01, 0.05),
///     queues: &NoQueues,
/// };
/// let request = QueryRequest::new(
///     QuerySpec::new(QueryId::new(7), vec![TableId::new(0), TableId::new(1)]),
///     SimTime::new(2.0),
/// );
/// let arena = SubsetArena::build(&ctx, &request, &replicated_footprint(&ctx, &request));
/// let ceilings = arena.ceilings(ctx.rates);
/// for at in [2.0, 6.0, 12.0] {
///     let at = SimTime::new(at);
///     let wave = arena.wave(&ctx, at);
///     let release = ceilings.release(&request, at);
///     for row in 0..arena.len() {
///         // No row ever scores above its own ceiling.
///         let iv = arena.score(&ctx, &request, &wave, row).information_value.value();
///         assert!(!ceilings.rules_out(release, row, iv));
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IvCeilings {
    rates: DiscountRates,
    /// `(−ln(1 − λ_CL) − ln(1 − λ_SL)) · ε`: how fast the kernel's
    /// relative rounding error grows with the magnitude of the release
    /// time.
    rounding_slope: f64,
    /// `(1 − λ_CL)^c · (1 − λ_SL)^c` per row.
    cost_discounts: Vec<f64>,
}

impl IvCeilings {
    /// The factor every row's ceiling shares at release time `at ≥ s`:
    /// `BV · (1 − λ_CL)^(at − s)`, widened by 1e-9 relative and by the
    /// kernel's rounding of latencies whose service start is of the
    /// magnitude of `at` (always so without queues, as in the plan
    /// cache).
    #[must_use]
    pub fn release(&self, request: &QueryRequest, at: SimTime) -> f64 {
        let slack = 1.0 + CEILING_MARGIN + self.rounding_slope * at.value().abs();
        request.business_value.value() * self.rates.cl.factor(at - request.submitted_at) * slack
    }

    /// `true` if row `row`, released at the time `release` was computed
    /// for, provably scores strictly below `iv`.
    #[must_use]
    pub fn rules_out(&self, release: f64, row: usize, iv: f64) -> bool {
        release * self.cost_discounts[row] < iv
    }
}

/// The data version of `table`'s replica for work released at `at`: its
/// last synchronization at or before `at`, or time zero if it never
/// synchronized.
fn replica_version(ctx: &PlanContext<'_>, table: TableId, at: SimTime) -> SimTime {
    ctx.timelines.last_sync(table, at).unwrap_or(SimTime::ZERO)
}

/// The replica versions one release time sees, looked up once and shared
/// by every mask scored there: entry `i` is the data version of the
/// arena's replicated table `i` (see [`SubsetArena::wave`]). Each lookup
/// is a binary search over that table's synchronization timeline, so a
/// wave of `2^r` candidates costs `r` lookups instead of one per local
/// table per candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    at: SimTime,
    versions: Vec<SimTime>,
}

/// Structure-of-arrays store of everything about a query's candidate
/// subsets that does **not** depend on the release time: per-mask
/// spanned remote sites and cost-model estimates, each flattened into
/// one shared vector with per-mask ranges. Built once per search, it
/// makes scoring a candidate — [`SubsetArena::score`] — completely
/// allocation-free: the release-time-dependent work is just queue
/// probes, a minimum over the [`Wave`]'s replica versions, a handful of
/// additions and the two `powf` calls of the IV formula. The cost model
/// runs once per mask, when the arena is built.
///
/// Mask `m` selects replicated table `i` iff bit `i` of `m` is set, in
/// exactly the [`local_subsets`](crate::search::local_subsets)
/// enumeration order (mask 0 is the all-remote plan), so arena masks
/// and plan-cache candidates index the same space.
/// A built arena holds every mask, row `m` being mask `m`;
/// [`SubsetArena::select`] keeps only some of them.
#[derive(Debug, Clone)]
pub struct SubsetArena {
    /// The replicated footprint, ascending.
    replicated: Vec<TableId>,
    /// Each row's mask.
    masks: Vec<usize>,
    /// The union of all rows' masks: the replicated tables a wave must
    /// look up.
    used: usize,
    /// All rows' spanned remote sites, flattened and ascending per row.
    sites: Vec<SiteId>,
    site_ranges: Vec<(usize, usize)>,
    costs: Vec<PlanCost>,
}

impl SubsetArena {
    /// Precomputes the per-mask sites and costs for `request` under
    /// `ctx`. `replicated` must be the request's replicated footprint
    /// (see [`replicated_footprint`](crate::search::replicated_footprint)),
    /// which is ascending like every query footprint.
    ///
    /// # Panics
    ///
    /// Panics if the replicated footprint has `usize::BITS` or more
    /// tables (the subset enumeration would overflow).
    #[must_use]
    pub fn build(ctx: &PlanContext<'_>, request: &QueryRequest, replicated: &[TableId]) -> Self {
        let n = replicated.len();
        assert!(n < usize::BITS as usize, "too many replicated tables");
        debug_assert!(
            replicated.windows(2).all(|w| w[0] < w[1]),
            "the replicated footprint is ascending"
        );
        let n_masks = 1usize << n;
        let mut arena = SubsetArena {
            replicated: replicated.to_vec(),
            masks: (0..n_masks).collect(),
            used: n_masks - 1,
            sites: Vec::new(),
            site_ranges: Vec::with_capacity(n_masks),
            costs: Vec::with_capacity(n_masks),
        };
        for mask in 0..n_masks {
            let remote: BTreeSet<TableId> = request
                .query
                .tables()
                .iter()
                .copied()
                .filter(|t| !SetBits(mask).any(|i| replicated[i] == *t))
                .collect();
            arena
                .costs
                .push(ctx.model.plan_cost(ctx.catalog, &request.query, &remote));
            let site_start = arena.sites.len();
            if !remote.is_empty() {
                let remote_vec: Vec<TableId> = remote.iter().copied().collect();
                arena.sites.extend(ctx.catalog.sites_spanned(&remote_vec));
            }
            arena.site_ranges.push((site_start, arena.sites.len()));
        }
        arena
    }

    /// A compact arena holding only the given `rows` of this one, in that
    /// order: row `i` of the result scores exactly like row `rows[i]` of
    /// `self`, without keeping the other rows or re-running the cost
    /// model. Its waves look up only the tables those rows read locally.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range.
    #[must_use]
    pub fn select(&self, rows: &[usize]) -> SubsetArena {
        let mut arena = SubsetArena {
            replicated: self.replicated.clone(),
            masks: Vec::with_capacity(rows.len()),
            used: 0,
            sites: Vec::new(),
            site_ranges: Vec::with_capacity(rows.len()),
            costs: Vec::with_capacity(rows.len()),
        };
        for &row in rows {
            let mask = self.masks[row];
            arena.masks.push(mask);
            arena.used |= mask;
            let site_start = arena.sites.len();
            arena.sites.extend_from_slice(self.row_sites(row));
            arena.site_ranges.push((site_start, arena.sites.len()));
            arena.costs.push(self.costs[row]);
        }
        arena
    }

    /// Number of rows (`2^replicated` masks for a built arena).
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// `true` for an arena with no rows (never produced by
    /// [`SubsetArena::build`], which always has at least mask 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The replicated footprint the masks enumerate.
    #[must_use]
    pub fn replicated(&self) -> &[TableId] {
        &self.replicated
    }

    /// Row `row`'s local tables, ascending.
    pub fn local(&self, row: usize) -> impl Iterator<Item = TableId> + '_ {
        SetBits(self.masks[row]).map(|i| self.replicated[i])
    }

    fn row_sites(&self, row: usize) -> &[SiteId] {
        let (start, end) = self.site_ranges[row];
        &self.sites[start..end]
    }

    /// Looks up, once, the replica versions every row scored at release
    /// time `at` needs.
    #[must_use]
    pub fn wave(&self, ctx: &PlanContext<'_>, at: SimTime) -> Wave {
        let versions = self
            .replicated
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if self.used & (1 << i) == 0 {
                    SimTime::ZERO // no row reads this table locally
                } else {
                    replica_version(ctx, t, at)
                }
            })
            .collect();
        Wave { at, versions }
    }

    /// Scores row `row` released at the `wave`'s time — the
    /// allocation-free equivalent of [`evaluate_plan`] on a candidate
    /// that is valid by construction, bit-identical to it (both run
    /// `score_candidate`, and the row's data version is the minimum over
    /// its mask's set bits of the wave's versions, taken in ascending
    /// table order as `evaluate_plan` takes it). `wave` must come from
    /// [`SubsetArena::wave`] of this arena, or of the arena it was
    /// [selected](SubsetArena::select) from.
    #[must_use]
    pub fn score(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        wave: &Wave,
        row: usize,
    ) -> CandidateScore {
        let mask = self.masks[row];
        score_candidate(
            ctx,
            request,
            wave.at,
            SetBits(mask).map(|i| wave.versions[i]),
            mask.count_ones() as usize,
            self.row_sites(row),
            self.costs[row],
        )
    }

    /// The [`IvCeilings`] of this arena's rows under `rates`: the cost
    /// model's estimates already sit in the arena, so this costs two
    /// `powf` calls per row and no cost-model call.
    #[must_use]
    pub fn ceilings(&self, rates: DiscountRates) -> IvCeilings {
        let ln_retained = |rate: DiscountRate| -(1.0 - rate.rate()).ln();
        IvCeilings {
            rates,
            rounding_slope: (ln_retained(rates.cl) + ln_retained(rates.sl)) * f64::EPSILON,
            cost_discounts: self
                .costs
                .iter()
                .map(|cost| rates.cl.factor(cost.total()) * rates.sl.factor(cost.total()))
                .collect(),
        }
    }

    /// Materializes the winning `(row, score)` pair into the
    /// [`PlanEvaluation`] the sequential search would have produced.
    #[must_use]
    pub fn evaluation(
        &self,
        request: &QueryRequest,
        row: usize,
        score: CandidateScore,
    ) -> PlanEvaluation {
        score.into_evaluation(request.id(), self.local(row).collect())
    }
}

/// The indices of a mask's set bits, lowest first.
struct SetBits(usize);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Evaluates the candidate plan *(execute_at, local)* for `request`.
///
/// Timing model:
///
/// 1. execution is released at `execute_at ≥ submitted_at`;
/// 2. queuing delays it until every involved server is free — the maximum
///    of the local queue (always involved) and, if any table is read
///    remotely, the queues of the spanned remote sites;
/// 3. processing and result transmission take the cost model's estimate;
/// 4. replica data is stamped with its last synchronization at or before
///    `execute_at`; remote base data is stamped with the processing start;
/// 5. `CL = finish − submitted_at`, `SL = finish − min(data timestamps)`,
///    and `IV = BV·(1−λ_CL)^CL·(1−λ_SL)^SL`.
///
/// Steps 2–5 run in `score_candidate`, the same kernel the search's
/// [`SubsetArena`] hot path uses, so both paths agree bit for bit. Unlike
/// the arena, which shares one [`Wave`] of replica versions across every
/// candidate at a release time, this single-candidate path looks up its
/// own local tables' versions.
///
/// # Errors
///
/// Returns [`PlanError`] if `local` contains an unreplicated table or one
/// outside the footprint, or if `execute_at < submitted_at`.
pub fn evaluate_plan(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    execute_at: SimTime,
    local: &BTreeSet<TableId>,
) -> Result<PlanEvaluation, PlanError> {
    if execute_at < request.submitted_at {
        return Err(PlanError::ExecutesBeforeSubmission {
            execute_at,
            submitted_at: request.submitted_at,
        });
    }
    for &t in local {
        if !request.query.references(t) {
            return Err(PlanError::OutsideFootprint { table: t });
        }
        if !ctx.timelines.has_replica(t) {
            return Err(PlanError::NotReplicated { table: t });
        }
    }
    let remote: BTreeSet<TableId> = request
        .query
        .tables()
        .iter()
        .copied()
        .filter(|t| !local.contains(t))
        .collect();

    let cost = ctx.model.plan_cost(ctx.catalog, &request.query, &remote);
    let sites: Vec<SiteId> = if remote.is_empty() {
        Vec::new()
    } else {
        let remote_vec: Vec<TableId> = remote.iter().copied().collect();
        ctx.catalog.sites_spanned(&remote_vec).into_iter().collect()
    };
    let score = score_candidate(
        ctx,
        request,
        execute_at,
        local.iter().map(|&t| replica_version(ctx, t, execute_at)),
        local.len(),
        &sites,
        cost,
    );
    Ok(score.into_evaluation(request.id(), local.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::placement::PlacementStrategy;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_replication::timelines::SyncMode;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn set(ids: &[u32]) -> BTreeSet<TableId> {
        ids.iter().map(|&i| t(i)).collect()
    }

    /// Catalog of 4 tables on 2 sites; tables 0 and 1 replicated with
    /// periods 8 and 2.
    fn fixture() -> (Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 0,
            placement: PlacementStrategy::Uniform,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        plan.add(t(0), ReplicaSpec::new(8.0));
        plan.add(t(1), ReplicaSpec::new(2.0));
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    fn ctx<'a>(
        catalog: &'a Catalog,
        timelines: &'a SyncTimelines,
        model: &'a StylizedCostModel,
        queues: &'a dyn QueueEstimator,
    ) -> PlanContext<'a> {
        PlanContext {
            catalog,
            timelines,
            model,
            rates: DiscountRates::paper_fig4(),
            queues,
        }
    }

    #[test]
    fn all_remote_plan_sl_equals_cl_without_queue() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(11.0),
        );
        let eval = evaluate_plan(&ctx, &req, SimTime::new(11.0), &BTreeSet::new()).unwrap();
        // 2 remote tables → cost 6; CL = SL = 6.
        assert_eq!(eval.latencies.computational, SimDuration::new(6.0));
        assert_eq!(eval.latencies.synchronization, SimDuration::new(6.0));
        assert!(eval.is_all_remote());
        assert!(!eval.is_delayed(SimTime::new(11.0)));
    }

    #[test]
    fn all_local_plan_uses_replica_timestamps() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(11.0),
        );
        let eval = evaluate_plan(&ctx, &req, SimTime::new(11.0), &set(&[0, 1])).unwrap();
        // Cost 2 → finish 13. T0 last synced at 8, T1 at 10 → stalest 8.
        assert_eq!(eval.finish, SimTime::new(13.0));
        assert_eq!(eval.data_version, SimTime::new(8.0));
        assert_eq!(eval.latencies.computational, SimDuration::new(2.0));
        assert_eq!(eval.latencies.synchronization, SimDuration::new(5.0));
        assert!(eval.is_all_local(&req.query));
    }

    #[test]
    fn delayed_plan_waits_for_fresher_replica() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0)]),
            SimTime::new(11.0),
        );
        // Wait for T0's sync at 16.
        let eval = evaluate_plan(&ctx, &req, SimTime::new(16.0), &set(&[0])).unwrap();
        assert!(eval.is_delayed(SimTime::new(11.0)));
        // Finish 18; CL = 7; version 16 → SL = 2.
        assert_eq!(eval.latencies.computational, SimDuration::new(7.0));
        assert_eq!(eval.latencies.synchronization, SimDuration::new(2.0));
    }

    #[test]
    fn mixed_plan_version_is_min_of_sources() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(2)]),
            SimTime::new(11.0),
        );
        // T0 local (synced at 8), T2 remote (stamped at start 11).
        let eval = evaluate_plan(&ctx, &req, SimTime::new(11.0), &set(&[0])).unwrap();
        assert_eq!(eval.data_version, SimTime::new(8.0));
        // cost = base 2 + 2·1 remote = 4 → finish 15, SL = 7.
        assert_eq!(eval.latencies.synchronization, SimDuration::new(7.0));
    }

    #[test]
    fn queue_delay_pushes_start() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let mut queues = FacilityQueues::new(catalog.site_count());
        // Local server busy until t = 20.
        queues
            .local_mut()
            .book(SimTime::ZERO, SimDuration::new(20.0));
        let ctx = ctx(&catalog, &timelines, &model, &queues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0)]),
            SimTime::new(11.0),
        );
        let eval = evaluate_plan(&ctx, &req, SimTime::new(11.0), &set(&[0])).unwrap();
        assert_eq!(eval.service_start, SimTime::new(20.0));
        // CL includes the queuing time: 20 + 2 − 11 = 11.
        assert_eq!(eval.latencies.computational, SimDuration::new(11.0));
    }

    #[test]
    fn remote_queue_counts_for_remote_plans() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let mut queues = FacilityQueues::new(catalog.site_count());
        let site = catalog.site_of(t(2));
        queues
            .remote_mut(site)
            .book(SimTime::ZERO, SimDuration::new(30.0));
        let ctx = ctx(&catalog, &timelines, &model, &queues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(2)]),
            SimTime::new(11.0),
        );
        let eval = evaluate_plan(&ctx, &req, SimTime::new(11.0), &BTreeSet::new()).unwrap();
        assert_eq!(eval.service_start, SimTime::new(30.0));
    }

    #[test]
    fn plan_errors_are_reported() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(2)]),
            SimTime::new(11.0),
        );
        // t2 has no replica.
        let err = evaluate_plan(&ctx, &req, SimTime::new(11.0), &set(&[2])).unwrap_err();
        assert!(matches!(err, PlanError::NotReplicated { .. }));
        // t3 outside footprint.
        let err = evaluate_plan(&ctx, &req, SimTime::new(11.0), &set(&[3])).unwrap_err();
        assert!(matches!(err, PlanError::OutsideFootprint { .. }));
        // executing in the past.
        let err = evaluate_plan(&ctx, &req, SimTime::new(1.0), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, PlanError::ExecutesBeforeSubmission { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn site_floors_defer_remote_work_and_compose_with_queues() {
        let (catalog, _timelines) = fixture();
        let site = catalog.site_of(t(2));
        let mut queues = FacilityQueues::new(catalog.site_count());
        // The site also has a booked job keeping it busy over the floor.
        queues
            .remote_mut(site)
            .book(SimTime::new(30.0), SimDuration::new(5.0));
        let floors: std::collections::BTreeMap<SiteId, SimTime> =
            [(site, SimTime::new(30.0))].into_iter().collect();
        let floored = SiteFloors::new(&queues, floors);
        assert!(!floored.is_empty());
        // Wait out the floor (10→30), then the booked job (30→35).
        assert_eq!(
            floored.remote_delay(site, SimTime::new(10.0), SimDuration::new(1.0)),
            SimDuration::new(25.0)
        );
        // Local work is unaffected by remote floors.
        assert_eq!(
            floored.local_delay(SimTime::new(10.0), SimDuration::new(1.0)),
            SimDuration::ZERO
        );
        // Other sites are unaffected.
        let other = SiteId::new((site.index() as u32 + 1) % catalog.site_count() as u32);
        assert_eq!(
            floored.remote_delay(other, SimTime::new(10.0), SimDuration::new(1.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn search_degrades_to_replica_only_under_remote_outage() {
        use crate::search::ScatterGatherSearch;
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(11.0),
        );
        let search = ScatterGatherSearch::new();

        let nominal_ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        let nominal = search
            .search_from(&nominal_ctx, &req, req.submitted_at)
            .unwrap();

        // Every site hosting the footprint is down for a long time.
        let floors: std::collections::BTreeMap<SiteId, SimTime> = catalog
            .sites_spanned(&[t(0), t(1)])
            .into_iter()
            .map(|s| (s, SimTime::new(500.0)))
            .collect();
        let floored = SiteFloors::new(&NoQueues, floors);
        let degraded_ctx = ctx(&catalog, &timelines, &model, &floored);
        let degraded = search
            .search_from(&degraded_ctx, &req, req.submitted_at)
            .unwrap();

        // The planner steers to the replica-only plan instead of stalling
        // on the outage, and the degraded IV never beats the nominal one.
        assert!(degraded.best.is_all_local(&req.query));
        assert!(
            degraded.best.information_value <= nominal.best.information_value,
            "outage must not improve IV"
        );
    }

    #[test]
    fn ceilings_cover_rounding_at_large_release_times() {
        // Near t = 1e9 a time step is 2^-23, so `finish = τ + c` rounds
        // `c = 2.0000000501` down to 2: CL and SL both come out ~5e-8
        // below the exact bound, which at λ = 0.3 puts the all-local
        // score ~3.6e-8 above its exact ceiling, more than the fixed
        // 1e-9 margin covers.
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::new(2.000_000_050_1, 0.7);
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.3, 0.3),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(1e9 - 1.0),
        );
        let arena = SubsetArena::build(&ctx, &req, &[t(0), t(1)]);
        let ceilings = arena.ceilings(ctx.rates);
        for at in [1e9 - 1.0, 1e9, 1e9 + 2.0, 1e9 + 8.0] {
            let at = SimTime::new(at);
            let wave = arena.wave(&ctx, at);
            let release = ceilings.release(&req, at);
            for row in 0..arena.len() {
                let iv = arena.score(&ctx, &req, &wave, row).information_value;
                assert!(
                    !ceilings.rules_out(release, row, iv.value()),
                    "row {row} at {at} scores {iv} above its ceiling"
                );
            }
        }
    }

    #[test]
    fn request_builder() {
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(3), vec![t(0)]),
            SimTime::new(1.0),
        )
        .with_business_value(BusinessValue::new(7.0));
        assert_eq!(req.business_value.value(), 7.0);
        assert_eq!(req.id(), QueryId::new(3));
    }

    #[test]
    fn context_debug_is_nonempty() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, &NoQueues);
        assert!(format!("{ctx:?}").contains("PlanContext"));
    }
}
