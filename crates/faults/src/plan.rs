//! Precomputed, seed-deterministic fault schedules.
//!
//! A [`FaultPlan`] is generated *once*, up front, from a [`FaultConfig`],
//! the nominal synchronization timelines, and a seed — then replayed by
//! the serving engine and simulators. Precomputing (rather than drawing
//! faults online) is what makes chaos runs reproducible: the fault trace
//! is a pure function of the seed, independent of how the consumer
//! interleaves its own random draws.

use std::collections::BTreeMap;

use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_costmodel::query::QueryId;
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::rng::{ExponentialStream, SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::{SimDuration, SimTime};

/// One contiguous unavailability window of a remote site: the site is down
/// for `[start, end)` and answers again from `end` on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The affected site.
    pub site: SiteId,
    /// When the site goes down (inclusive).
    pub start: SimTime,
    /// When the site recovers (exclusive — the site serves at `end`).
    pub end: SimTime,
}

impl Outage {
    /// Returns `true` if the site is down at `at`.
    #[must_use]
    pub fn covers(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// Fault-family intensities for [`FaultPlan::generate`].
///
/// The default configuration injects nothing; presets and field updates
/// compose via struct-update syntax:
///
/// ```
/// use ivdss_faults::FaultConfig;
/// use ivdss_simkernel::time::SimTime;
///
/// let cfg = FaultConfig {
///     slip_probability: 0.2,
///     horizon: SimTime::new(500.0),
///     ..FaultConfig::default()
/// };
/// assert_eq!(cfg.drop_probability, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a scheduled synchronization completes late.
    pub slip_probability: f64,
    /// Probability that a scheduled synchronization never completes.
    /// `slip_probability + drop_probability` must be ≤ 1.
    pub drop_probability: f64,
    /// Uniform range `[min, max]` of slip delays (time units past the
    /// nominal completion).
    pub slip_delay: (f64, f64),
    /// Mean time between site failures (exponential); `0` disables
    /// outages.
    pub outage_mtbf: f64,
    /// Uniform range `[min, max]` of outage durations.
    pub outage_duration: (f64, f64),
    /// Multiplicative cost-jitter factor range `[low, high]`, both ≥ 1 so
    /// jitter can only degrade. `(1.0, 1.0)` disables jitter.
    pub jitter: (f64, f64),
    /// Fault-generation horizon: no fault starts after this time.
    pub horizon: SimTime,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            slip_probability: 0.0,
            drop_probability: 0.0,
            slip_delay: (0.0, 0.0),
            outage_mtbf: 0.0,
            outage_duration: (0.0, 0.0),
            jitter: (1.0, 1.0),
            horizon: SimTime::ZERO,
        }
    }
}

impl FaultConfig {
    /// Validates the configuration, panicking on nonsense.
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.slip_probability)
                && (0.0..=1.0).contains(&self.drop_probability)
                && self.slip_probability + self.drop_probability <= 1.0,
            "slip/drop probabilities must be in [0, 1] and sum to at most 1"
        );
        assert!(
            self.slip_delay.0.is_finite()
                && self.slip_delay.0 >= 0.0
                && self.slip_delay.1 >= self.slip_delay.0,
            "slip delay range must satisfy 0 <= min <= max"
        );
        assert!(
            self.outage_mtbf.is_finite() && self.outage_mtbf >= 0.0,
            "outage MTBF must be non-negative"
        );
        assert!(
            self.outage_duration.0.is_finite()
                && self.outage_duration.0 >= 0.0
                && self.outage_duration.1 >= self.outage_duration.0,
            "outage duration range must satisfy 0 <= min <= max"
        );
        assert!(
            self.jitter.0 >= 1.0 && self.jitter.1 >= self.jitter.0 && self.jitter.1.is_finite(),
            "jitter factors must satisfy 1 <= low <= high (jitter only degrades)"
        );
    }
}

/// A fully materialized fault schedule: timeline revisions, site outages
/// and the cost-jitter parameters.
///
/// # Examples
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_faults::{FaultConfig, FaultPlan};
/// use ivdss_replication::schedule::Schedule;
/// use ivdss_replication::timelines::SyncTimelines;
/// use ivdss_simkernel::time::SimTime;
///
/// let mut tl = SyncTimelines::new();
/// tl.insert(TableId::new(0), Schedule::periodic(10.0, 0.0));
/// let cfg = FaultConfig {
///     slip_probability: 0.5,
///     slip_delay: (1.0, 3.0),
///     horizon: SimTime::new(200.0),
///     ..FaultConfig::default()
/// };
/// let plan = FaultPlan::generate(&cfg, &tl, 0, 42);
/// // Deterministic: the same seed always yields the same trace.
/// assert_eq!(plan, FaultPlan::generate(&cfg, &tl, 0, 42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    revisions: Vec<TimelineRevision>,
    outages: Vec<Outage>,
    /// Running maximum of `outages[..=i].end`: non-decreasing, so
    /// [`FaultPlan::site_floors`] can binary-search past every outage
    /// that ended by a given instant.
    max_end: Vec<SimTime>,
    jitter: (f64, f64),
    jitter_seed: u64,
    horizon: SimTime,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none(horizon: SimTime) -> Self {
        FaultPlan {
            revisions: Vec::new(),
            outages: Vec::new(),
            max_end: Vec::new(),
            jitter: (1.0, 1.0),
            jitter_seed: 0,
            horizon,
        }
    }

    /// This plan scoped to one shard of a sharded replica set: timeline
    /// revisions are kept only for the `tables` the shard owns (a sync
    /// slip perturbs exactly the shard maintaining that replica), while
    /// site outages and cost jitter — shared infrastructure every shard
    /// reaches — are kept in full.
    #[must_use]
    pub fn scoped_to_tables(&self, tables: &[TableId]) -> FaultPlan {
        FaultPlan {
            revisions: self
                .revisions
                .iter()
                .filter(|r| tables.contains(&r.table))
                .copied()
                .collect(),
            outages: self.outages.clone(),
            max_end: self.max_end.clone(),
            jitter: self.jitter,
            jitter_seed: self.jitter_seed,
            horizon: self.horizon,
        }
    }

    /// Assembles a scripted plan from explicit parts (for regression
    /// scenarios that need exact fault times rather than sampled ones).
    /// Revisions are sorted by `(revealed_at, table)` and outages by
    /// `(start, site)`.
    ///
    /// # Panics
    ///
    /// Panics if jitter factors do not satisfy `1 <= low <= high` or an
    /// outage ends before it starts.
    #[must_use]
    pub fn from_parts(
        mut revisions: Vec<TimelineRevision>,
        mut outages: Vec<Outage>,
        jitter: (f64, f64),
        jitter_seed: u64,
        horizon: SimTime,
    ) -> Self {
        assert!(
            jitter.0 >= 1.0 && jitter.1 >= jitter.0 && jitter.1.is_finite(),
            "jitter factors must satisfy 1 <= low <= high"
        );
        for o in &outages {
            assert!(o.start <= o.end, "outage must end at or after its start");
        }
        revisions.sort_by_key(|r| (r.revealed_at, r.table));
        outages.sort_by_key(|o| (o.start, o.site));
        FaultPlan {
            revisions,
            max_end: running_max_end(&outages),
            outages,
            jitter,
            jitter_seed,
            horizon,
        }
    }

    /// Samples a fault plan: each scheduled synchronization in
    /// `(0, horizon]` independently slips or drops, each of the
    /// `site_count` sites alternates up/down phases, and the jitter
    /// parameters are recorded for [`FaultPlan::jitter_factor`].
    ///
    /// The initial completion at `t = 0` (a replica's starting version) is
    /// never faulted. Every fault family draws from its own named
    /// sub-stream of `seed`, so intensifying one family does not reshuffle
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see field docs).
    #[must_use]
    pub fn generate(
        config: &FaultConfig,
        timelines: &SyncTimelines,
        site_count: usize,
        seed: u64,
    ) -> Self {
        config.validate();
        let factory = SeedFactory::new(seed);

        let mut revisions = Vec::new();
        for (table, schedule) in timelines.iter() {
            let mut draws = UniformStream::new(
                0.0,
                1.0,
                factory.seed_for_indexed("fault:sync", table.index()),
            );
            for scheduled in schedule.completions_in(SimTime::ZERO, config.horizon) {
                let u = draws.next_sample();
                // One more draw regardless of outcome keeps the stream
                // aligned when probabilities change between runs.
                let delay_u = draws.next_sample();
                let new_time = if u < config.drop_probability {
                    None
                } else if u < config.drop_probability + config.slip_probability {
                    let (lo, hi) = config.slip_delay;
                    Some(scheduled + SimDuration::new(lo + delay_u * (hi - lo)))
                } else {
                    continue;
                };
                revisions.push(TimelineRevision {
                    revealed_at: scheduled,
                    table,
                    scheduled,
                    new_time,
                });
            }
        }
        revisions.sort_by_key(|r| (r.revealed_at, r.table));

        let mut outages = Vec::new();
        if config.outage_mtbf > 0.0 {
            for s in 0..site_count {
                let site = SiteId::new(u32::try_from(s).expect("site index fits u32"));
                let mut gaps = ExponentialStream::new(
                    config.outage_mtbf,
                    factory.seed_for_indexed("fault:outage", s),
                );
                let mut durations =
                    UniformStream::new(0.0, 1.0, factory.seed_for_indexed("fault:outage-len", s));
                let mut t = SimTime::ZERO;
                loop {
                    t += gaps.next_duration();
                    if t > config.horizon {
                        break;
                    }
                    let (lo, hi) = config.outage_duration;
                    let len = lo + durations.next_sample() * (hi - lo);
                    let end = t + SimDuration::new(len);
                    outages.push(Outage {
                        site,
                        start: t,
                        end,
                    });
                    t = end;
                }
            }
        }
        outages.sort_by_key(|o| (o.start, o.site));

        FaultPlan {
            revisions,
            max_end: running_max_end(&outages),
            outages,
            jitter: config.jitter,
            jitter_seed: factory.seed_for("fault:jitter"),
            horizon: config.horizon,
        }
    }

    /// The timeline revisions, sorted by `(revealed_at, table)`: replay
    /// them in order, applying each once its `revealed_at` has passed.
    #[must_use]
    pub fn revisions(&self) -> &[TimelineRevision] {
        &self.revisions
    }

    /// The site outages, sorted by `(start, site)`.
    #[must_use]
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The fault-generation horizon.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of slipped synchronizations.
    #[must_use]
    pub fn slip_count(&self) -> usize {
        self.revisions
            .iter()
            .filter(|r| r.new_time.is_some())
            .count()
    }

    /// Number of dropped synchronizations.
    #[must_use]
    pub fn drop_count(&self) -> usize {
        self.revisions
            .iter()
            .filter(|r| r.new_time.is_none())
            .count()
    }

    /// Returns `true` if the plan injects no fault of any kind.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.revisions.is_empty() && self.outages.is_empty() && self.jitter == (1.0, 1.0)
    }

    /// Release floors for every site down at `at`: work dispatched to a
    /// floored site cannot start before the floor (its recovery time).
    /// Sites that are up do not appear.
    #[must_use]
    pub fn site_floors(&self, at: SimTime) -> BTreeMap<SiteId, SimTime> {
        self.site_floors_until(at).0
    }

    /// [`FaultPlan::site_floors`] at `at`, plus the first instant after
    /// `at` at which an outage starts or a covering outage ends
    /// ([`SimTime::MAX`] if none does). The set of covering outages, and
    /// so the floors, is the same at every instant in `[at, until)`, so a
    /// consumer stepping forward in time can hold the map until then.
    ///
    /// An outage covering `at` starts by `at` and lies past the longest
    /// prefix of outages that all ended by `at`. Binary searches over the
    /// starts and the running maximum of the ends bound that slice, so
    /// the cost does not grow with the plan's past.
    #[must_use]
    pub fn site_floors_until(&self, at: SimTime) -> (BTreeMap<SiteId, SimTime>, SimTime) {
        let lo = self.max_end.partition_point(|&end| end <= at);
        let hi = self.outages.partition_point(|o| o.start <= at);
        let mut until = self.outages.get(hi).map_or(SimTime::MAX, |o| o.start);
        let floors = self.outages[lo..hi.max(lo)]
            .iter()
            .filter(|o| o.covers(at))
            .map(|o| {
                until = until.min(o.end);
                (o.site, o.end)
            })
            .collect();
        (floors, until)
    }

    /// Applies every revision to a copy of the nominal timelines — the
    /// timeline belief of an omniscient observer who has seen all faults.
    /// Useful for planner-level degradation tests; the serving engine
    /// instead applies revisions incrementally as they are revealed.
    #[must_use]
    pub fn degraded_timelines(&self, nominal: &SyncTimelines) -> SyncTimelines {
        let mut degraded = nominal.clone();
        for revision in &self.revisions {
            degraded.revise(revision, self.horizon);
        }
        degraded
    }

    /// The deterministic cost-jitter factor for a query: a value in
    /// `[jitter.0, jitter.1]` that is a pure function of the plan's jitter
    /// seed and the query id, so re-planning the same query sees the same
    /// (degraded) costs.
    #[must_use]
    pub fn jitter_factor(&self, query: QueryId) -> f64 {
        let (lo, hi) = self.jitter;
        if lo == hi {
            return lo;
        }
        let bits = SeedFactory::new(self.jitter_seed).seed_for_indexed(
            "q",
            usize::try_from(query.raw() % u64::from(u32::MAX)).expect("bounded"),
        );
        // Map the top 53 bits onto [0, 1).
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// The running maximum of the outages' ends, in plan order.
fn running_max_end(outages: &[Outage]) -> Vec<SimTime> {
    let mut max = SimTime::new(f64::NEG_INFINITY);
    outages
        .iter()
        .map(|o| {
            max = max.max(o.end);
            max
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_replication::schedule::Schedule;

    fn timelines() -> SyncTimelines {
        let mut tl = SyncTimelines::new();
        tl.insert(TableId::new(0), Schedule::periodic(5.0, 0.0));
        tl.insert(TableId::new(1), Schedule::periodic(7.0, 0.0));
        tl
    }

    fn chaos_config() -> FaultConfig {
        FaultConfig {
            slip_probability: 0.3,
            drop_probability: 0.1,
            slip_delay: (0.5, 2.0),
            outage_mtbf: 40.0,
            outage_duration: (5.0, 15.0),
            jitter: (1.0, 1.5),
            horizon: SimTime::new(500.0),
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let tl = timelines();
        let a = FaultPlan::generate(&chaos_config(), &tl, 3, 11);
        let b = FaultPlan::generate(&chaos_config(), &tl, 3, 11);
        let c = FaultPlan::generate(&chaos_config(), &tl, 3, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn shard_scoping_splits_revisions_but_keeps_infrastructure_faults() {
        let tl = timelines();
        let plan = FaultPlan::generate(&chaos_config(), &tl, 3, 11);
        let shard0 = plan.scoped_to_tables(&[TableId::new(0)]);
        let shard1 = plan.scoped_to_tables(&[TableId::new(1)]);
        // Revisions partition by ownership…
        assert!(shard0
            .revisions()
            .iter()
            .all(|r| r.table == TableId::new(0)));
        assert!(shard1
            .revisions()
            .iter()
            .all(|r| r.table == TableId::new(1)));
        assert_eq!(
            shard0.revisions().len() + shard1.revisions().len(),
            plan.revisions().len()
        );
        // …while site outages and jitter are shared infrastructure.
        assert_eq!(shard0.outages(), plan.outages());
        assert_eq!(shard1.outages(), plan.outages());
        assert_eq!(
            shard0.jitter_factor(QueryId::new(9)),
            plan.jitter_factor(QueryId::new(9))
        );
        assert_eq!(shard0.horizon(), plan.horizon());
    }

    #[test]
    fn slips_and_drops_target_real_sync_points() {
        let tl = timelines();
        let plan = FaultPlan::generate(&chaos_config(), &tl, 0, 7);
        assert!(plan.slip_count() > 0 && plan.drop_count() > 0);
        for r in plan.revisions() {
            // Revealed exactly when the sync was due, never before.
            assert_eq!(r.revealed_at, r.scheduled);
            // The nominal completion really is on the nominal timeline.
            let on_schedule = tl
                .schedule(r.table)
                .unwrap()
                .last_completion_at(r.scheduled)
                == Some(r.scheduled);
            assert!(on_schedule, "revision of a nonexistent sync: {r:?}");
            // Slips move strictly later.
            if let Some(new_time) = r.new_time {
                assert!(new_time > r.scheduled);
            }
            // The initial t=0 completion is never faulted.
            assert!(r.scheduled > SimTime::ZERO);
        }
    }

    #[test]
    fn revisions_sorted_and_applicable() {
        let tl = timelines();
        let plan = FaultPlan::generate(&chaos_config(), &tl, 0, 3);
        assert!(plan
            .revisions()
            .windows(2)
            .all(|w| w[0].revealed_at <= w[1].revealed_at));
        // Every revision applies cleanly in revealed order.
        let mut belief = tl.clone();
        for r in plan.revisions() {
            assert!(belief.revise(r, plan.horizon()), "failed to apply {r:?}");
        }
        assert_eq!(plan.degraded_timelines(&tl), belief);
    }

    #[test]
    fn outages_alternate_and_floor_sites() {
        let plan = FaultPlan::generate(&chaos_config(), &timelines(), 2, 19);
        assert!(!plan.outages().is_empty());
        for site in [SiteId::new(0), SiteId::new(1)] {
            let mine: Vec<&Outage> = plan.outages().iter().filter(|o| o.site == site).collect();
            for pair in mine.windows(2) {
                assert!(pair[0].end <= pair[1].start, "overlapping outages");
            }
        }
        let o = plan.outages()[0];
        let mid = SimTime::new((o.start.value() + o.end.value()) / 2.0);
        assert_eq!(plan.site_floors(mid).get(&o.site), Some(&o.end));
        assert!(!plan.site_floors(o.end).contains_key(&o.site));
    }

    #[test]
    fn jitter_factor_is_stable_and_bounded() {
        let plan = FaultPlan::generate(&chaos_config(), &timelines(), 1, 5);
        let mut distinct = std::collections::BTreeSet::new();
        for q in 0..64u64 {
            let f = plan.jitter_factor(QueryId::new(q));
            assert!((1.0..=1.5).contains(&f), "factor {f} out of range");
            assert_eq!(f, plan.jitter_factor(QueryId::new(q)), "not stable");
            distinct.insert(f.to_bits());
        }
        assert!(distinct.len() > 32, "jitter factors should vary per query");
    }

    #[test]
    fn none_and_default_config_inject_nothing() {
        let plan = FaultPlan::none(SimTime::new(100.0));
        assert!(plan.is_empty());
        assert_eq!(plan.jitter_factor(QueryId::new(9)), 1.0);
        let generated = FaultPlan::generate(
            &FaultConfig {
                horizon: SimTime::new(100.0),
                ..FaultConfig::default()
            },
            &timelines(),
            4,
            77,
        );
        assert!(generated.is_empty());
        assert_eq!(generated.degraded_timelines(&timelines()), timelines());
    }

    #[test]
    fn from_parts_sorts_inputs() {
        let t0 = TableId::new(0);
        let plan = FaultPlan::from_parts(
            vec![
                TimelineRevision {
                    revealed_at: SimTime::new(9.0),
                    table: t0,
                    scheduled: SimTime::new(9.0),
                    new_time: None,
                },
                TimelineRevision {
                    revealed_at: SimTime::new(4.0),
                    table: t0,
                    scheduled: SimTime::new(4.0),
                    new_time: Some(SimTime::new(5.0)),
                },
            ],
            vec![
                Outage {
                    site: SiteId::new(1),
                    start: SimTime::new(20.0),
                    end: SimTime::new(30.0),
                },
                Outage {
                    site: SiteId::new(0),
                    start: SimTime::new(10.0),
                    end: SimTime::new(12.0),
                },
            ],
            (1.0, 1.0),
            0,
            SimTime::new(50.0),
        );
        assert_eq!(plan.revisions()[0].revealed_at, SimTime::new(4.0));
        assert_eq!(plan.outages()[0].site, SiteId::new(0));
        assert_eq!(plan.slip_count(), 1);
        assert_eq!(plan.drop_count(), 1);
    }

    #[test]
    #[should_panic(expected = "jitter factors")]
    fn shrinking_jitter_rejected() {
        let _ = FaultPlan::from_parts(Vec::new(), Vec::new(), (0.5, 1.0), 0, SimTime::ZERO);
    }
}
