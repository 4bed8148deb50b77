//! Composable scenario specifications and their event streams.
//!
//! A [`ScenarioSpec`] names one reproducible traffic regime: an
//! arrival-intensity profile, a template-popularity law, a tenant mix,
//! an optional schema-growth plan, and the catalog shape it all runs
//! against. [`ScenarioSpec::build_world`] materializes the (grown)
//! catalog and timelines; [`ScenarioSpec::stream`] then yields the
//! scenario's [`ScenarioEvent`]s in submission order, bit-identically
//! per seed. Every stochastic choice rides a named sub-seed from the
//! workspace's [`SeedFactory`], so two streams from the same spec are
//! byte-for-byte interchangeable.

use ivdss_catalog::catalog::{Catalog, CatalogError};
use ivdss_catalog::ids::TableId;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

use crate::arrival::{ArrivalProcess, IntensityProfile};
use crate::growth::{grow_catalog, BornTable, GrowthSpec};
use crate::popularity::ZipfSampler;
use crate::tenant::{TenantMix, TenantSpec};

/// How arrivals pick a query template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Cycle through the eligible templates — the paper's §4.1 regime.
    RoundRobin,
    /// Zipf-skewed template popularity with the given exponent (the
    /// template list is the rank order: earlier templates are hotter).
    Zipf {
        /// The skew exponent `s` in `P(rank) ∝ (rank + 1)^(−s)`.
        exponent: f64,
    },
}

/// A named, seeded, fully reproducible traffic scenario.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::arrival::IntensityProfile;
/// use ivdss_scenarios::scenario::{Popularity, ScenarioSpec};
///
/// let spec = ScenarioSpec::new("docs-example", 7)
///     .with_horizon(40.0)
///     .with_arrivals(IntensityProfile::constant(2.0))
///     .with_popularity(Popularity::Zipf { exponent: 1.1 });
/// let world = spec.build_world().unwrap();
/// let events: Vec<_> = spec.stream(&world).collect();
/// // Replays are bit-identical per seed.
/// let again: Vec<_> = spec.stream(&world).collect();
/// assert_eq!(events, again);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Catalog name (static: scenarios form a fixed registry).
    pub name: &'static str,
    /// Root seed; every stochastic component derives a named sub-seed.
    pub seed: u64,
    /// Replay horizon — no arrivals at or beyond this sim time.
    pub horizon: f64,
    /// The arrival-intensity profile.
    pub arrivals: IntensityProfile,
    /// The template-popularity law.
    pub popularity: Popularity,
    /// The tenant mix (at least one tenant).
    pub tenants: Vec<TenantSpec>,
    /// Optional schema growth over the run.
    pub growth: Option<GrowthSpec>,
    /// Base-catalog table count.
    pub tables: usize,
    /// Remote-site count.
    pub sites: usize,
    /// Replicated-table count in the base catalog.
    pub replicated_tables: usize,
    /// Mean sync period of base replicas.
    pub mean_sync_period: f64,
    /// Base query-template count.
    pub templates: usize,
    /// Upper bound on tables per template.
    pub max_tables_per_query: usize,
    /// Admission-queue capacity the driver should configure.
    pub queue_capacity: usize,
    /// IV discount rates the driver should serve under.
    pub rates: DiscountRates,
}

impl ScenarioSpec {
    /// A baseline scenario: 24-table/4-site catalog with 12 replicas,
    /// 16 round-robin templates, one unit-value tenant, constant
    /// rate-1 arrivals over a 120-unit horizon.
    #[must_use]
    pub fn new(name: &'static str, seed: u64) -> Self {
        ScenarioSpec {
            name,
            seed,
            horizon: 120.0,
            arrivals: IntensityProfile::constant(1.0),
            popularity: Popularity::RoundRobin,
            tenants: vec![TenantSpec::new("all", 1.0, (0.5, 1.5))],
            growth: None,
            tables: 24,
            sites: 4,
            replicated_tables: 12,
            mean_sync_period: 8.0,
            templates: 16,
            max_tables_per_query: 3,
            queue_capacity: 64,
            rates: DiscountRates::paper_fig4(),
        }
    }

    /// Sets the replay horizon.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not strictly positive and finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::new("short", 1).with_horizon(30.0);
    /// assert_eq!(spec.horizon, 30.0);
    /// ```
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be positive"
        );
        self.horizon = horizon;
        self
    }

    /// Sets the arrival-intensity profile.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::arrival::IntensityProfile;
    /// use ivdss_scenarios::scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::new("bursty", 1)
    ///     .with_arrivals(IntensityProfile::flash_crowd(0.5, 5.0, 40.0, 15.0));
    /// assert_eq!(spec.arrivals.peak_rate(), 5.0);
    /// ```
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: IntensityProfile) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the template-popularity law.
    #[must_use]
    pub fn with_popularity(mut self, popularity: Popularity) -> Self {
        self.popularity = popularity;
        self
    }

    /// Sets the tenant mix.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::scenario::ScenarioSpec;
    /// use ivdss_scenarios::tenant::TenantSpec;
    ///
    /// let spec = ScenarioSpec::new("tiered", 1).with_tenants(vec![
    ///     TenantSpec::new("gold", 0.2, (5.0, 10.0)).with_sla(10.0),
    ///     TenantSpec::new("bronze", 0.8, (0.5, 1.5)),
    /// ]);
    /// assert_eq!(spec.tenants.len(), 2);
    /// ```
    #[must_use]
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        self.tenants = tenants;
        self
    }

    /// Attaches a schema-growth plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::growth::GrowthSpec;
    /// use ivdss_scenarios::scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::new("growing", 1)
    ///     .with_growth(GrowthSpec::new(4, 30.0, 20.0, 6.0));
    /// let world = spec.build_world().unwrap();
    /// assert_eq!(world.births.len(), 4);
    /// ```
    #[must_use]
    pub fn with_growth(mut self, growth: GrowthSpec) -> Self {
        self.growth = Some(growth);
        self
    }

    /// Sets the template-pool shape.
    ///
    /// # Panics
    ///
    /// Panics if `templates` is zero or the per-query bound is zero.
    #[must_use]
    pub fn with_templates(mut self, templates: usize, max_tables_per_query: usize) -> Self {
        assert!(
            templates > 0 && max_tables_per_query > 0,
            "template pool must be non-empty"
        );
        self.templates = templates;
        self.max_tables_per_query = max_tables_per_query;
        self
    }

    /// Sets the admission-queue capacity scenario drivers configure.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// The scenario's seed factory — sub-seed names are part of the
    /// replay contract.
    #[must_use]
    pub fn seeds(&self) -> SeedFactory {
        SeedFactory::new(self.seed)
    }

    /// Materializes the scenario's world: the (grown) catalog, its
    /// deterministic timelines, the birth roster, and the template pool
    /// in eligibility order.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] if the catalog shape is internally
    /// inconsistent.
    pub fn build_world(&self) -> Result<ScenarioWorld, CatalogError> {
        let seeds = self.seeds();
        let base = synthetic_catalog(&SyntheticConfig {
            tables: self.tables,
            sites: self.sites,
            placement: PlacementStrategy::Uniform,
            replicated_tables: self.replicated_tables,
            mean_sync_period: self.mean_sync_period,
            rows_range: (1_000, 10_000_000),
            seed: seeds.seed_for("catalog"),
        })?;
        let (catalog, timelines, births) = match &self.growth {
            Some(growth) => grow_catalog(&base, growth)?,
            None => {
                let timelines =
                    SyncTimelines::from_plan(base.replication(), SyncMode::Deterministic);
                (base, timelines, Vec::new())
            }
        };

        // Base templates draw only from base tables and are eligible
        // from the origin; each newborn table contributes one template
        // that joins the draw at its birth. Eligibility times are
        // non-decreasing by construction, so the eligible pool at time
        // `t` is a prefix.
        let mut templates: Vec<(QuerySpec, SimTime)> = random_queries(&RandomQueryConfig {
            queries: self.templates,
            tables: self.tables,
            max_tables_per_query: self.max_tables_per_query,
            weight_range: (0.8, 2.5),
            seed: seeds.seed_for("templates"),
        })
        .into_iter()
        .map(|spec| (spec, SimTime::ZERO))
        .collect();
        let mut mates = UniformStream::new(0.0, 1.0, seeds.seed_for("growth-templates"));
        for born in &births {
            let mut footprint = vec![born.table];
            // Join the newborn table with up to two distinct base
            // tables so growth traffic exercises cross-site plans.
            while footprint.len() < self.max_tables_per_query.min(3) {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let pick = (mates.next_sample() * self.tables as f64) as usize;
                let pick = TableId::new(pick.min(self.tables - 1) as u32);
                if !footprint.contains(&pick) {
                    footprint.push(pick);
                }
            }
            let id = QueryId::new(templates.len() as u64);
            templates.push((QuerySpec::with_profile(id, footprint, 1.5, 0.01), born.born));
        }

        Ok(ScenarioWorld {
            catalog,
            timelines,
            births,
            templates,
        })
    }

    /// The scenario's event stream over a built world.
    #[must_use]
    pub fn stream(&self, world: &ScenarioWorld) -> ScenarioStream {
        let seeds = self.seeds();
        let popularity = match self.popularity {
            Popularity::RoundRobin => PopularityState::RoundRobin { next: 0 },
            Popularity::Zipf { exponent } => PopularityState::Zipf(ZipfSampler::new(
                world.templates.len(),
                exponent,
                seeds.seed_for("popularity"),
            )),
        };
        ScenarioStream {
            templates: world.templates.clone(),
            arrivals: ArrivalProcess::new(self.arrivals, seeds.seed_for("arrivals")),
            popularity,
            tenants: TenantMix::new(self.tenants.clone(), seeds.seed_for("tenants")),
            horizon: SimTime::new(self.horizon),
            next_id: 0,
            done: false,
        }
    }
}

/// The materialized world of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioWorld {
    /// The (grown) catalog every engine in the run serves against.
    pub catalog: Catalog,
    /// Deterministic sync timelines, cold-phased for newborn tables.
    pub timelines: SyncTimelines,
    /// Mid-run table births, in birth order (empty without growth).
    pub births: Vec<BornTable>,
    /// The template pool, sorted by eligibility time.
    templates: Vec<(QuerySpec, SimTime)>,
}

impl ScenarioWorld {
    /// The template pool with each template's eligibility time.
    #[must_use]
    pub fn templates(&self) -> &[(QuerySpec, SimTime)] {
        &self.templates
    }
}

#[derive(Debug, Clone)]
enum PopularityState {
    RoundRobin { next: usize },
    Zipf(ZipfSampler),
}

/// One scenario arrival: the request plus its tenant tag and absolute
/// SLA deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// The request to submit.
    pub request: QueryRequest,
    /// Index of the owning tenant in the scenario's tenant mix.
    pub tenant: usize,
    /// Absolute deadline (`submitted + tenant SLA`), if the tenant has
    /// one.
    pub deadline: Option<SimTime>,
}

/// The seeded event stream of one scenario — an iterator over
/// [`ScenarioEvent`]s, exhausted at the horizon.
#[derive(Debug, Clone)]
pub struct ScenarioStream {
    templates: Vec<(QuerySpec, SimTime)>,
    arrivals: ArrivalProcess,
    popularity: PopularityState,
    tenants: TenantMix,
    horizon: SimTime,
    next_id: u64,
    done: bool,
}

impl ScenarioStream {
    /// Generates the next arrival, or `None` once the first arrival at
    /// or past the horizon is drawn (the stream then stays exhausted).
    pub fn next_event(&mut self) -> Option<ScenarioEvent> {
        if self.done {
            return None;
        }
        let t = self.arrivals.next_arrival();
        if t >= self.horizon {
            self.done = true;
            return None;
        }
        // Base templates are eligible at the origin, so the prefix is
        // never empty.
        let eligible = self.templates.partition_point(|&(_, at)| at <= t);
        let index = match &mut self.popularity {
            PopularityState::RoundRobin { next } => {
                let i = *next % eligible;
                *next += 1;
                i
            }
            PopularityState::Zipf(sampler) => sampler.sample_bounded(eligible),
        };
        let draw = self.tenants.draw();
        let query = self.templates[index].0.with_id(QueryId::new(self.next_id));
        self.next_id += 1;
        Some(ScenarioEvent {
            request: QueryRequest {
                query,
                business_value: draw.business_value,
                submitted_at: t,
            },
            tenant: draw.tenant,
            deadline: draw.deadline.map(|sla| t + sla),
        })
    }

    /// The replay horizon.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

impl Iterator for ScenarioStream {
    type Item = ScenarioEvent;

    fn next(&mut self) -> Option<ScenarioEvent> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_ordered_fresh_ids_and_exhausts() {
        let spec = ScenarioSpec::new("t", 3).with_horizon(60.0);
        let world = spec.build_world().unwrap();
        let mut stream = spec.stream(&world);
        let events: Vec<ScenarioEvent> = stream.by_ref().collect();
        assert!(!events.is_empty());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.request.query.id().raw(), i as u64);
            assert!(e.request.submitted_at < SimTime::new(60.0));
        }
        for w in events.windows(2) {
            assert!(w[0].request.submitted_at < w[1].request.submitted_at);
        }
        // Exhaustion is a fuse.
        assert!(stream.next_event().is_none());
        assert!(stream.next_event().is_none());
    }

    #[test]
    fn round_robin_cycles_eligible_templates() {
        let spec = ScenarioSpec::new("rr", 5)
            .with_horizon(40.0)
            .with_templates(4, 2);
        let world = spec.build_world().unwrap();
        let events: Vec<ScenarioEvent> = spec.stream(&world).collect();
        for (i, e) in events.iter().enumerate() {
            let expected = &world.templates()[i % 4].0;
            assert_eq!(e.request.query.tables(), expected.tables());
        }
    }

    #[test]
    fn growth_templates_wait_for_birth() {
        let spec = ScenarioSpec::new("grow", 8)
            .with_horizon(100.0)
            .with_growth(GrowthSpec::new(2, 30.0, 30.0, 5.0))
            .with_popularity(Popularity::Zipf { exponent: 0.5 });
        let world = spec.build_world().unwrap();
        assert_eq!(world.templates().len(), spec.templates + 2);
        for event in spec.stream(&world) {
            for &table in event.request.query.tables() {
                if let Some(born) = world.births.iter().find(|b| b.table == table) {
                    assert!(
                        event.request.submitted_at >= born.born,
                        "query at {:?} references table born at {:?}",
                        event.request.submitted_at,
                        born.born
                    );
                }
            }
        }
    }

    #[test]
    fn deadlines_are_submission_plus_sla() {
        let spec = ScenarioSpec::new("sla", 2)
            .with_horizon(50.0)
            .with_tenants(vec![TenantSpec::new("gold", 1.0, (1.0, 2.0)).with_sla(10.0)]);
        let world = spec.build_world().unwrap();
        for event in spec.stream(&world) {
            assert_eq!(event.tenant, 0);
            assert_eq!(
                event.deadline,
                Some(event.request.submitted_at + ivdss_simkernel::time::SimDuration::new(10.0))
            );
        }
    }
}
