//! The named scenario registry.
//!
//! Four canonical regimes, each a fixed [`ScenarioSpec`] with a pinned
//! seed — the catalog entries in `docs/SCENARIOS.md` reproduce these
//! bit-for-bit on the sim clock. Add new scenarios here (and to the
//! catalog document) rather than scattering ad-hoc specs through
//! drivers.

use crate::arrival::IntensityProfile;
use crate::growth::GrowthSpec;
use crate::scenario::{Popularity, ScenarioSpec};
use crate::tenant::TenantSpec;

/// Zipf-skewed template popularity over steady arrivals: a handful of
/// hot reports dominate, so the plan cache should carry most of the
/// load.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::named::zipf_skew;
///
/// let spec = zipf_skew();
/// assert_eq!(spec.name, "zipf-skew");
/// assert!(spec.build_world().is_ok());
/// ```
#[must_use]
pub fn zipf_skew() -> ScenarioSpec {
    ScenarioSpec::new("zipf-skew", 0x21BF)
        .with_horizon(240.0)
        .with_arrivals(IntensityProfile::constant(1.0))
        .with_popularity(Popularity::Zipf { exponent: 1.1 })
        .with_templates(24, 3)
}

/// A flash crowd: quiet base traffic, then a 10× burst against a
/// deliberately small admission queue — the IV-aware shedder has to
/// choose victims.
#[must_use]
pub fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec::new("flash-crowd", 0xF1A5)
        .with_horizon(120.0)
        .with_arrivals(IntensityProfile::flash_crowd(0.6, 6.0, 40.0, 15.0))
        .with_popularity(Popularity::Zipf { exponent: 0.9 })
        .with_queue_capacity(8)
}

/// Three tenants with diurnal arrivals: gold (high value, tight SLA),
/// silver (mid value, loose SLA), bronze (low value, best effort).
/// Value-weighted shedding should sacrifice bronze first.
#[must_use]
pub fn multi_tenant_sla() -> ScenarioSpec {
    ScenarioSpec::new("multi-tenant-sla", 0x7E4A)
        .with_horizon(180.0)
        .with_arrivals(IntensityProfile::diurnal(1.2, 0.7, 60.0))
        .with_tenants(vec![
            TenantSpec::new("gold", 0.2, (5.0, 10.0)).with_sla(10.0),
            TenantSpec::new("silver", 0.3, (2.0, 4.0)).with_sla(25.0),
            TenantSpec::new("bronze", 0.5, (0.5, 1.5)),
        ])
        .with_queue_capacity(12)
}

/// Schema growth: four tables born mid-run with cold timelines, each
/// contributing a new template the moment it is born.
#[must_use]
pub fn schema_growth() -> ScenarioSpec {
    ScenarioSpec::new("schema-growth", 0x9B0C)
        .with_horizon(160.0)
        .with_arrivals(IntensityProfile::constant(1.2))
        .with_popularity(Popularity::Zipf { exponent: 0.8 })
        .with_growth(GrowthSpec::new(4, 30.0, 20.0, 6.0))
}

/// Every named scenario, in catalog order.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::named::all_scenarios;
///
/// let crowd = all_scenarios().into_iter().find(|s| s.name == "flash-crowd");
/// assert!(crowd.is_some());
/// ```
#[must_use]
pub fn all_scenarios() -> Vec<ScenarioSpec> {
    vec![
        zipf_skew(),
        flash_crowd(),
        multi_tenant_sla(),
        schema_growth(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_complete_and_distinct() {
        let all = all_scenarios();
        assert_eq!(all.len(), 4);
        let names: BTreeSet<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 4, "scenario names must be unique");
        let seeds: BTreeSet<u64> = all.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 4, "scenario seeds must be distinct");
    }

    #[test]
    fn every_named_scenario_builds_and_streams() {
        for spec in all_scenarios() {
            let world = spec.build_world().expect("world builds");
            let events: Vec<_> = spec.stream(&world).collect();
            assert!(
                !events.is_empty(),
                "scenario {} generated no traffic",
                spec.name
            );
            // Rough sanity: the draw should land within a factor of two
            // of the analytic expectation (exact laws live in the
            // property suite).
            let expected = spec
                .arrivals
                .expected_count(ivdss_simkernel::time::SimTime::new(spec.horizon));
            let n = events.len() as f64;
            assert!(
                n > expected * 0.5 && n < expected * 2.0,
                "scenario {}: {n} arrivals vs expected {expected}",
                spec.name
            );
        }
    }

    #[test]
    fn flash_crowd_bursts_and_growth_gates() {
        let crowd = flash_crowd();
        let world = crowd.build_world().unwrap();
        let events: Vec<_> = crowd.stream(&world).collect();
        let in_burst = events
            .iter()
            .filter(|e| {
                let t = e.request.submitted_at.value();
                (40.0..55.0).contains(&t)
            })
            .count();
        // The 15-unit burst at 6 qps should dwarf the 105 quiet units
        // at 0.6 qps.
        assert!(
            in_burst as f64 > events.len() as f64 * 0.4,
            "burst carried {in_burst} of {} arrivals",
            events.len()
        );

        let growth = schema_growth();
        let world = growth.build_world().unwrap();
        assert_eq!(world.births.len(), 4);
        let events: Vec<_> = growth.stream(&world).collect();
        let growth_traffic = events
            .iter()
            .filter(|e| {
                e.request
                    .query
                    .tables()
                    .iter()
                    .any(|t| world.births.iter().any(|b| b.table == *t))
            })
            .count();
        assert!(growth_traffic > 0, "no traffic ever reached newborn tables");
    }
}
