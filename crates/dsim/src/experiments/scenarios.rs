//! Named-scenario experiment driver.
//!
//! Replays each scenario from the `ivdss-scenarios` registry through a
//! live [`ServeEngine`]: Zipf-skewed popularity, flash crowds against a
//! small admission queue, multi-tenant SLA mixes, and schema growth
//! with cold timelines. Every point is a pure function of the
//! scenario's spec — catalog, templates, arrivals, tenant draws and
//! engine behavior all ride named sub-seeds — so headline numbers are
//! reproducible bit-for-bit and `docs/SCENARIOS.md` can pin them.

use std::collections::BTreeMap;

use ivdss_costmodel::model::StylizedCostModel;
use ivdss_obs::{EventKind, Tracer};
use ivdss_scenarios::scenario::ScenarioSpec;
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{Completion, ServeConfig, ServeEngine};
use ivdss_simkernel::time::{SimDuration, SimTime};

/// Per-tenant slice of one scenario point.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Tenant name from the scenario's mix.
    pub name: &'static str,
    /// Requests the stream assigned to this tenant.
    pub offered: u64,
    /// Requests delivered.
    pub completed: u64,
    /// Information value delivered to this tenant.
    pub delivered_iv: f64,
    /// Completions checked against an SLA deadline.
    pub sla_tracked: u64,
    /// Of those, completions that met the deadline.
    pub sla_met: u64,
}

/// Headline numbers of one named scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// The scenario's registry name.
    pub name: &'static str,
    /// Its pinned root seed.
    pub seed: u64,
    /// Requests the stream generated before the horizon.
    pub submitted: u64,
    /// Requests delivered.
    pub completed: u64,
    /// Requests shed by IV-aware admission control.
    pub shed: u64,
    /// Fraction of submissions shed.
    pub shed_rate: f64,
    /// Total delivered information value.
    pub total_iv: f64,
    /// Mean delivered IV per completion.
    pub mean_iv: f64,
    /// Exact nearest-rank p99 of computational latency over all
    /// completions.
    pub p99_cl: f64,
    /// Completions carrying an SLA deadline.
    pub sla_tracked: u64,
    /// Of those, completions inside their deadline.
    pub sla_met: u64,
    /// Tables born mid-run (schema growth).
    pub births: usize,
    /// Per-tenant breakdown, in mix order.
    pub tenants: Vec<TenantPoint>,
}

/// Exact nearest-rank p99 over raw computational latencies.
fn p99(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((0.99 * values.len() as f64).ceil() as usize).max(1);
    values[rank - 1]
}

/// Replays `spec` through a serve engine, emitting scenario-tagged
/// events (`scenario_started`, `table_born`, `sla_checked`) into
/// `tracer` alongside the engine's own serving telemetry.
///
/// # Panics
///
/// Panics if the scenario's catalog shape is invalid or a submission
/// fails to plan — both are scenario-authoring bugs.
#[must_use]
pub fn run_scenario_traced(spec: &ScenarioSpec, tracer: &Tracer) -> ScenarioPoint {
    let world = spec.build_world().expect("scenario world builds");
    let model = StylizedCostModel::paper_fig4();
    let mut serve = ServeConfig::new(spec.rates);
    serve.queue_capacity = spec.queue_capacity;
    // A zero-tolerance dispatch gate makes the admission queue real:
    // under a flash crowd the engine must queue and shed rather than
    // dispatch into an unbounded backlog.
    serve.dispatch_backlog = SimDuration::ZERO;
    let mut engine = ServeEngine::new(
        &world.catalog,
        &world.timelines,
        &model,
        serve,
        DesClock::new(),
    )
    .with_tracer(tracer.clone());

    tracer.emit_with(SimTime::ZERO, || EventKind::ScenarioStarted {
        name: spec.name,
        seed: spec.seed,
        horizon: SimTime::new(spec.horizon),
    });

    // QueryId → (tenant, absolute deadline); ids are unique per stream.
    let mut owners: BTreeMap<u64, (usize, Option<SimTime>)> = BTreeMap::new();
    let mut tenants: Vec<TenantPoint> = spec
        .tenants
        .iter()
        .map(|t| TenantPoint {
            name: t.name,
            offered: 0,
            completed: 0,
            delivered_iv: 0.0,
            sla_tracked: 0,
            sla_met: 0,
        })
        .collect();

    let mut stream = spec.stream(&world);
    let mut submitted = 0u64;
    let mut next_birth = 0usize;
    let mut completions: Vec<Completion> = Vec::new();
    while let Some(event) = stream.next_event() {
        while next_birth < world.births.len()
            && world.births[next_birth].born <= event.request.submitted_at
        {
            let born = world.births[next_birth];
            tracer.emit_with(born.born, || EventKind::TableBorn {
                table: born.table,
                born: born.born,
                sync_period: born.sync_period,
            });
            next_birth += 1;
        }
        owners.insert(
            event.request.query.id().raw(),
            (event.tenant, event.deadline),
        );
        tenants[event.tenant].offered += 1;
        submitted += 1;
        let report = engine
            .submit(event.request)
            .expect("scenario submission plans");
        completions.extend(report.completed);
    }
    for born in &world.births[next_birth..] {
        tracer.emit_with(born.born, || EventKind::TableBorn {
            table: born.table,
            born: born.born,
            sync_period: born.sync_period,
        });
    }
    completions.extend(engine.drain().expect("scenario drain plans"));

    let mut sla_tracked = 0u64;
    let mut sla_met = 0u64;
    let mut cls = Vec::with_capacity(completions.len());
    for completion in &completions {
        let (tenant, deadline) = owners[&completion.query.raw()];
        let slice = &mut tenants[tenant];
        slice.completed += 1;
        slice.delivered_iv += completion.evaluation.information_value.value();
        cls.push(completion.evaluation.latencies.computational.value());
        if let Some(deadline) = deadline {
            let finish = completion.evaluation.finish;
            let met = finish <= deadline;
            slice.sla_tracked += 1;
            sla_tracked += 1;
            if met {
                slice.sla_met += 1;
                sla_met += 1;
            }
            #[allow(clippy::cast_possible_truncation)]
            tracer.emit_with(finish, || EventKind::SlaChecked {
                query: completion.query,
                tenant: tenant as u32,
                deadline,
                finish,
                met,
            });
        }
    }

    let snapshot = engine.snapshot();
    let completed = completions.len() as u64;
    ScenarioPoint {
        name: spec.name,
        seed: spec.seed,
        submitted,
        completed,
        shed: snapshot.queries_shed,
        shed_rate: if submitted == 0 {
            0.0
        } else {
            snapshot.queries_shed as f64 / submitted as f64
        },
        total_iv: snapshot.total_delivered_iv,
        mean_iv: if completed == 0 {
            0.0
        } else {
            snapshot.total_delivered_iv / completed as f64
        },
        p99_cl: p99(cls),
        sla_tracked,
        sla_met,
        births: world.births.len(),
        tenants,
    }
}

/// [`run_scenario_traced`] without tracing.
#[must_use]
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioPoint {
    run_scenario_traced(spec, &Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_obs::Trace;
    use ivdss_scenarios::named::{all_scenarios, flash_crowd, multi_tenant_sla, schema_growth};
    use std::sync::Arc;

    /// Every registry scenario at half its pinned horizon.
    fn half_horizon_sweep() -> Vec<ScenarioPoint> {
        all_scenarios()
            .into_iter()
            .map(|spec| {
                let horizon = spec.horizon * 0.5;
                run_scenario(&spec.with_horizon(horizon))
            })
            .collect()
    }

    #[test]
    fn every_scenario_conserves_queries() {
        let points = half_horizon_sweep();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(
                p.completed + p.shed,
                p.submitted,
                "{}: completions + shed must cover every submission",
                p.name
            );
            assert!(p.total_iv > 0.0, "{}: no IV delivered", p.name);
            let offered: u64 = p.tenants.iter().map(|t| t.offered).sum();
            assert_eq!(offered, p.submitted, "{}: tenant ledger leaks", p.name);
            let tenant_completed: u64 = p.tenants.iter().map(|t| t.completed).sum();
            assert_eq!(tenant_completed, p.completed);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(
            half_horizon_sweep(),
            half_horizon_sweep(),
            "same registry must reproduce the same sweep"
        );
    }

    #[test]
    fn sla_scenario_tracks_deadlines() {
        let spec = multi_tenant_sla().with_horizon(90.0);
        let point = run_scenario(&spec);
        assert!(point.sla_tracked > 0, "no SLA completions tracked");
        assert!(point.sla_met <= point.sla_tracked);
        // Bronze is best-effort: its slice never tracks SLAs.
        let bronze = point.tenants.iter().find(|t| t.name == "bronze").unwrap();
        assert_eq!(bronze.sla_tracked, 0);
        let tracked: u64 = point.tenants.iter().map(|t| t.sla_tracked).sum();
        assert_eq!(tracked, point.sla_tracked);
    }

    #[test]
    fn growth_scenario_reports_births_and_emits_events() {
        let spec = schema_growth().with_horizon(120.0);
        let trace = Arc::new(Trace::new());
        let point = run_scenario_traced(&spec, &Tracer::recording(Arc::clone(&trace)));
        assert_eq!(point.births, 4);
        let rendered = trace.render();
        assert!(rendered.contains("scenario_started name=schema-growth"));
        assert_eq!(
            rendered.matches(" table_born ").count(),
            4,
            "every birth must be traced exactly once"
        );
    }

    #[test]
    fn flash_crowd_sheds_under_burst() {
        let point = run_scenario(&flash_crowd());
        assert!(
            point.shed > 0,
            "the flash crowd must overwhelm the small queue"
        );
    }
}
