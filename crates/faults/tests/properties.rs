//! Property tests for fault plans: `FaultPlan::site_floors` binary-searches
//! the outages that can cover an instant, and must return exactly what a
//! linear filter over every outage returns; `FaultPlan::site_floors_until`
//! must also name an instant before which those floors hold.

use std::collections::BTreeMap;

use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_faults::{FaultConfig, FaultPlan, Outage};
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;
use proptest::prelude::*;

/// The linear filter over every outage of the plan, in plan order.
fn linear_floors(plan: &FaultPlan, at: SimTime) -> BTreeMap<SiteId, SimTime> {
    plan.outages()
        .iter()
        .filter(|o| o.covers(at))
        .map(|o| (o.site, o.end))
        .collect()
}

/// Probe instants: every outage's start and end, and a point inside and
/// just outside each, plus the extremes.
fn probes(plan: &FaultPlan) -> Vec<SimTime> {
    let mut probes = vec![SimTime::ZERO, SimTime::new(-1.0), SimTime::new(1.0e9)];
    for o in plan.outages() {
        let mid = SimTime::new((o.start.value() + o.end.value()) / 2.0);
        probes.extend([o.start, o.end, mid, SimTime::new(o.end.value() + 0.25)]);
    }
    probes
}

proptest! {
    /// Scripted plans with overlapping outages of one site (half-unit
    /// grid times, so shared starts and ends occur): the floors at every
    /// probe instant equal the linear filter's, in the plan and in its
    /// shard-scoped copy.
    #[test]
    fn site_floors_match_linear_filter(
        raw in prop::collection::vec((0u32..3, 0u32..200, 0u32..60), 0..40),
        extra in prop::collection::vec(0u32..260, 0..20)
    ) {
        let outages: Vec<Outage> = raw
            .iter()
            .map(|&(site, start, len)| Outage {
                site: SiteId::new(site),
                start: SimTime::new(f64::from(start) * 0.5),
                end: SimTime::new(f64::from(start + len) * 0.5),
            })
            .collect();
        let plan = FaultPlan::from_parts(Vec::new(), outages, (1.0, 1.0), 0, SimTime::new(150.0));
        let scoped = plan.scoped_to_tables(&[]);
        let mut instants = probes(&plan);
        instants.extend(extra.iter().map(|&x| SimTime::new(f64::from(x) * 0.5)));
        for at in instants {
            let expected = linear_floors(&plan, at);
            prop_assert_eq!(plan.site_floors(at), expected.clone());
            prop_assert_eq!(scoped.site_floors(at), expected);
        }
    }

    /// `site_floors_until(at)` returns the linear filter's floors at
    /// `at`, and the floors stay those at sampled instants of
    /// `[at, until)`: its start, one ulp below its end, its midpoint and
    /// grid instants inside it. Its end is an outage boundary, so the
    /// floors there differ, unless two outages of one site swap there.
    #[test]
    fn site_floors_hold_until_the_next_boundary(
        raw in prop::collection::vec((0u32..3, 0u32..200, 0u32..60), 0..40),
        extra in prop::collection::vec(0u32..260, 0..20)
    ) {
        let outages: Vec<Outage> = raw
            .iter()
            .map(|&(site, start, len)| Outage {
                site: SiteId::new(site),
                start: SimTime::new(f64::from(start) * 0.5),
                end: SimTime::new(f64::from(start + len) * 0.5),
            })
            .collect();
        let plan = FaultPlan::from_parts(Vec::new(), outages, (1.0, 1.0), 0, SimTime::new(150.0));
        let mut instants = probes(&plan);
        instants.extend(extra.iter().map(|&x| SimTime::new(f64::from(x) * 0.5)));
        for at in instants {
            let (floors, until) = plan.site_floors_until(at);
            prop_assert_eq!(&floors, &linear_floors(&plan, at));
            prop_assert!(until > at);
            let mut inside = vec![at];
            if until < SimTime::MAX {
                inside.push(SimTime::new(until.value().next_down()));
                inside.push(SimTime::new((at.value() + until.value()) / 2.0));
                prop_assert!(
                    plan.outages().iter().any(|o| o.start == until || o.end == until),
                    "{} is no outage boundary", until.value()
                );
            }
            inside.extend(
                (1..8)
                    .map(|i| SimTime::new(at.value() + f64::from(i) * 0.25))
                    .filter(|&t| t < until),
            );
            for t in inside {
                prop_assert_eq!(plan.site_floors(t), floors.clone(), "at {} until {}", at.value(), until.value());
            }
        }
    }

    /// Sampled plans: the same equality over `FaultPlan::generate`'s
    /// alternating up/down phases across sites.
    #[test]
    fn generated_site_floors_match_linear_filter(
        seed in any::<u64>(),
        mtbf in 1.0..40.0f64,
        max_len in 0.5..30.0f64,
        sites in 1usize..5
    ) {
        let mut timelines = SyncTimelines::new();
        timelines.insert(TableId::new(0), Schedule::periodic(10.0, 0.0));
        let config = FaultConfig {
            outage_mtbf: mtbf,
            outage_duration: (0.0, max_len),
            horizon: SimTime::new(300.0),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, &timelines, sites, seed);
        for at in probes(&plan) {
            let expected = linear_floors(&plan, at);
            prop_assert_eq!(plan.site_floors(at), expected.clone());
            let (floors, until) = plan.site_floors_until(at);
            prop_assert_eq!(&floors, &expected);
            if until < SimTime::MAX {
                let last = SimTime::new(until.value().next_down());
                prop_assert_eq!(plan.site_floors(last), expected);
            }
        }
    }
}

/// Two outages of one site overlap, the later-starting one ending first:
/// inside both, the map keeps the later outage's end, as a linear filter
/// in plan order does; once it ends, the earlier outage still floors the
/// site.
#[test]
fn overlapping_outages_of_one_site_keep_plan_order() {
    let site = SiteId::new(0);
    let plan = FaultPlan::from_parts(
        Vec::new(),
        vec![
            Outage {
                site,
                start: SimTime::new(10.0),
                end: SimTime::new(40.0),
            },
            Outage {
                site,
                start: SimTime::new(20.0),
                end: SimTime::new(25.0),
            },
        ],
        (1.0, 1.0),
        0,
        SimTime::new(100.0),
    );
    assert_eq!(
        plan.site_floors(SimTime::new(22.0))[&site],
        SimTime::new(25.0)
    );
    assert_eq!(
        plan.site_floors(SimTime::new(30.0))[&site],
        SimTime::new(40.0)
    );
    assert!(plan.site_floors(SimTime::new(40.0)).is_empty());
    for at in probes(&plan) {
        assert_eq!(plan.site_floors(at), linear_floors(&plan, at));
    }
}
