//! Chaos composition: adaptive scheduling under injected faults.
//!
//! The scheduler's output is an ordinary `SyncTimelines`, so the whole
//! existing fault machinery composes with it unchanged: a seeded
//! [`FaultPlan`] generated *against the committed adaptive schedule*
//! degrades it, the scheduler re-optimizes on the degraded picture, and
//! [`reschedule_revisions`] steers the degraded schedule toward the new
//! target as plain `TimelineRevision`s. This band sweeps seeds and
//! asserts the composition is deterministic, never panics, never
//! conjures refreshes, and that re-optimizing a degraded schedule never
//! commits below the degraded baseline.
//!
//! The serving-engine side of the composition — the committed timelines
//! driven through `ServeEngine::with_faults` under a fault plan
//! generated against them — is pinned byte for byte by
//! `tests/golden_sched.rs` for one seed. Over a few seeds, this suite
//! also checks that an empty fault plan serves the committed schedule
//! exactly as the plain engine does, and that a recording tracer
//! changes nothing and reconciles with the engine's fault counters.

mod util;

use std::sync::Arc;

use ivdss_catalog::catalog::Catalog;
use ivdss_core::value::BusinessValue;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::QuerySpec;
use ivdss_faults::observe::emit_fault_plan;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{EventKind, Trace, Tracer};
use ivdss_sched::{reschedule_revisions, AdaptiveConfig, AdaptiveOutcome, AdaptiveScheduler};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{Completion, ServeConfig, ServeEngine};
use ivdss_serve::loadgen::{run_open_loop, LoadReport, OpenLoopConfig};
use ivdss_serve::metrics::MetricsSnapshot;
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEEDS: u64 = 24;
/// Seeds of the band that the serving-side checks replay.
const SERVE_SEEDS: [u64; 4] = [0, 5, 11, 19];
/// Queries of each open-loop serving run.
const SERVE_QUERIES: usize = 40;
/// Mean inter-arrival time of each open-loop serving run.
const SERVE_INTERARRIVAL: f64 = 1.5;

fn storm(horizon: SimTime) -> FaultConfig {
    FaultConfig {
        slip_probability: 0.3,
        drop_probability: 0.15,
        slip_delay: (1.0, 6.0),
        outage_mtbf: 100.0,
        outage_duration: (4.0, 15.0),
        jitter: (1.0, 1.3),
        horizon,
    }
}

/// Runs the full composition for one seed: optimize, fault the chosen
/// schedule, re-optimize on the degraded picture, steer toward the new
/// target. Returns (first outcome, degraded re-optimization outcome,
/// revision count).
fn compose(seed: u64) -> (AdaptiveOutcome, AdaptiveOutcome, usize) {
    let (catalog, fixed, requests, costs) = util::scenario(seed);
    let model = StylizedCostModel::paper_fig4();
    let sched = AdaptiveScheduler::new(&catalog, &model, util::rates(), &requests, costs);
    let mut config = AdaptiveConfig::new(util::horizon());
    config.ga = Some(util::small_ga());

    let out = sched.optimize(&fixed, &config);

    let faults = FaultPlan::generate(
        &storm(util::horizon()),
        &out.chosen,
        catalog.site_count(),
        0xFA17 ^ seed,
    );
    let degraded = faults.degraded_timelines(&out.chosen);

    // Re-optimize with the degraded schedule as the new baseline: the
    // budget is whatever the degraded schedule still spends, and the
    // guard's floor is the degraded IV.
    let re = sched.optimize(&degraded, &config);

    let revisions = reschedule_revisions(&degraded, &re.chosen, SimTime::ZERO, util::horizon());
    (out, re, revisions.len())
}

#[test]
fn composition_is_deterministic_and_never_panics() {
    for seed in 0..SEEDS {
        let (a_out, a_re, a_revs) = compose(seed);
        let (b_out, b_re, b_revs) = compose(seed);
        assert_eq!(
            a_out, b_out,
            "seed {seed}: first optimization must reproduce"
        );
        assert_eq!(
            a_re, b_re,
            "seed {seed}: degraded re-optimization must reproduce"
        );
        assert_eq!(
            a_revs, b_revs,
            "seed {seed}: steering revisions must reproduce"
        );
    }
}

#[test]
fn reoptimizing_a_degraded_schedule_never_commits_below_it() {
    let mut faulted_seeds = 0u64;
    for seed in 0..SEEDS {
        let (out, re, _) = compose(seed);
        assert!(
            re.chosen_iv >= re.fixed_iv,
            "seed {seed}: degraded re-optimization fell below its own baseline \
             ({} vs {})",
            re.chosen_iv,
            re.fixed_iv
        );
        assert!(
            re.budget <= out.chosen_budget_used + 1e-9,
            "seed {seed}: faults can only shrink the spend the degraded schedule \
             re-budgets ({} vs {})",
            re.budget,
            out.chosen_budget_used
        );
        if re.budget < out.chosen_budget_used - 1e-9 {
            faulted_seeds += 1;
        }
    }
    assert!(
        faulted_seeds > SEEDS / 2,
        "the storm config should actually drop refreshes on most seeds, \
         got {faulted_seeds}/{SEEDS}"
    );
}

#[test]
fn steering_revisions_apply_and_never_add_refreshes() {
    for seed in 0..SEEDS {
        let (catalog, fixed, requests, costs) = util::scenario(seed);
        let model = StylizedCostModel::paper_fig4();
        let sched = AdaptiveScheduler::new(&catalog, &model, util::rates(), &requests, costs);
        let mut config = AdaptiveConfig::new(util::horizon());
        config.ga = Some(util::small_ga());
        let out = sched.optimize(&fixed, &config);

        let faults = FaultPlan::generate(
            &storm(util::horizon()),
            &out.chosen,
            catalog.site_count(),
            0xFA17 ^ seed,
        );
        let degraded = faults.degraded_timelines(&out.chosen);
        let re = sched.optimize(&degraded, &config);

        let revisions = reschedule_revisions(&degraded, &re.chosen, SimTime::ZERO, util::horizon());
        let spend_before: usize = degraded
            .iter()
            .map(|(_, s)| s.count_in(SimTime::ZERO, util::horizon()))
            .sum();
        let mut steered = degraded.clone();
        for r in &revisions {
            assert!(
                steered.revise(r, util::horizon()),
                "seed {seed}: steering revision must land: {r:?}"
            );
        }
        let spend_after: usize = steered
            .iter()
            .map(|(_, s)| s.count_in(SimTime::ZERO, util::horizon()))
            .sum();
        assert!(
            spend_after <= spend_before,
            "seed {seed}: steering added refreshes ({spend_before} -> {spend_after})"
        );
    }
}

#[test]
fn an_empty_fault_plan_leaves_the_composition_unchanged() {
    let (catalog, fixed, requests, costs) = util::scenario(3);
    let model = StylizedCostModel::paper_fig4();
    let sched = AdaptiveScheduler::new(&catalog, &model, util::rates(), &requests, costs);
    let mut config = AdaptiveConfig::new(util::horizon());
    config.ga = Some(util::small_ga());
    let out = sched.optimize(&fixed, &config);

    let calm = FaultConfig {
        slip_probability: 0.0,
        drop_probability: 0.0,
        slip_delay: (1.0, 2.0),
        outage_mtbf: 0.0,
        outage_duration: (1.0, 2.0),
        jitter: (1.0, 1.0),
        horizon: util::horizon(),
    };
    let faults = FaultPlan::generate(&calm, &out.chosen, catalog.site_count(), 1);
    assert!(faults.is_empty());
    let degraded = faults.degraded_timelines(&out.chosen);
    let re = sched.optimize(&degraded, &config);
    assert_eq!(
        re.chosen_iv.to_bits(),
        out.chosen_iv.to_bits(),
        "a no-op fault plan must reproduce the committed IV exactly"
    );
    assert!(
        reschedule_revisions(&degraded, &re.chosen, SimTime::ZERO, util::horizon()).is_empty(),
        "identical schedules need no steering"
    );
}

/// Serving horizon: the open-loop stream outlives the scheduling
/// horizon (periodic grids keep ticking), so faults must cover it too.
fn serve_horizon() -> SimTime {
    SimTime::new((SERVE_QUERIES as f64 * SERVE_INTERARRIVAL).mul_add(4.0, 100.0))
}

/// Optimizes `seed`'s scenario with its decisions emitted into `tracer`
/// and returns the catalog with the committed outcome.
fn commit(seed: u64, tracer: &Tracer) -> (Catalog, AdaptiveOutcome) {
    let (catalog, fixed, requests, costs) = util::scenario(seed);
    let model = StylizedCostModel::paper_fig4();
    let sched = AdaptiveScheduler::new(&catalog, &model, util::rates(), &requests, costs)
        .with_tracer(tracer.clone());
    let mut config = AdaptiveConfig::new(util::horizon());
    config.ga = Some(util::small_ga());
    let out = sched.optimize(&fixed, &config);
    (catalog, out)
}

/// The open-loop stream served over `seed`'s committed schedule.
fn open_loop(seed: u64) -> (Vec<QuerySpec>, OpenLoopConfig) {
    let templates = random_queries(&RandomQueryConfig {
        queries: 10,
        tables: 6,
        max_tables_per_query: 3,
        weight_range: (0.8, 2.0),
        seed: 0x5E7E ^ seed,
    });
    let open = OpenLoopConfig {
        queries: SERVE_QUERIES,
        mean_interarrival: SERVE_INTERARRIVAL,
        seed: 0xA7 ^ seed,
        business_value: BusinessValue::UNIT,
    };
    (templates, open)
}

/// Runs the whole composition for `seed` into `tracer`: the scheduler's
/// decisions, a storm fault plan generated against the committed
/// schedule, and a faulted engine serving the open-loop stream over it.
/// Returns the report and the final metrics.
fn serve_faulted(seed: u64, tracer: &Tracer) -> (LoadReport, MetricsSnapshot) {
    let (catalog, out) = commit(seed, tracer);
    let model = StylizedCostModel::paper_fig4();
    let faults = FaultPlan::generate(
        &storm(serve_horizon()),
        &out.chosen,
        catalog.site_count(),
        0xFA17 ^ seed,
    );
    emit_fault_plan(&faults, tracer);
    let mut engine = ServeEngine::with_faults(
        &catalog,
        &out.chosen,
        &model,
        ServeConfig::new(util::rates()),
        DesClock::new(),
        faults,
    )
    .with_tracer(tracer.clone());
    let (templates, open) = open_loop(seed);
    let report = run_open_loop(&mut engine, templates, &open).expect("faulted run is feasible");
    (report, engine.snapshot())
}

#[test]
fn serving_the_committed_schedule_under_an_empty_fault_plan_is_a_perfect_shadow() {
    // Arming the fault machinery with nothing to inject must not move a
    // single delivery over the adaptive schedule: same plans, same
    // timing, same IV, bit for bit.
    let delivered = |c: &Completion| (c.query, c.evaluation.clone(), c.waited, c.replanned);
    for seed in SERVE_SEEDS {
        let (catalog, out) = commit(seed, &Tracer::disabled());
        let model = StylizedCostModel::paper_fig4();
        let config = ServeConfig::new(util::rates());
        let mut plain = ServeEngine::new(&catalog, &out.chosen, &model, config, DesClock::new());
        let mut armed = ServeEngine::with_faults(
            &catalog,
            &out.chosen,
            &model,
            config,
            DesClock::new(),
            FaultPlan::none(serve_horizon()),
        );
        let (templates, open) = open_loop(seed);
        let plain_report =
            run_open_loop(&mut plain, templates.clone(), &open).expect("plain run is feasible");
        let armed_report =
            run_open_loop(&mut armed, templates, &open).expect("armed run is feasible");
        assert_eq!(
            armed_report.completions.len(),
            SERVE_QUERIES,
            "seed {seed}: every query is delivered"
        );
        assert_eq!(
            armed_report
                .completions
                .iter()
                .map(delivered)
                .collect::<Vec<_>>(),
            plain_report
                .completions
                .iter()
                .map(delivered)
                .collect::<Vec<_>>(),
            "seed {seed}: an empty fault plan changed the deliveries"
        );
        let snap = armed.snapshot();
        assert_eq!(
            (
                snap.faults_syncs_slipped,
                snap.faults_syncs_dropped,
                snap.faults_outages,
                snap.faults_replans
            ),
            (0, 0, 0, 0),
            "seed {seed}: an empty fault plan counted a fault"
        );
    }
}

#[test]
fn tracing_the_served_adaptive_schedule_under_faults_reconciles_bit_for_bit() {
    let mut faults = 0;
    for seed in SERVE_SEEDS {
        let (untraced, untraced_snap) = serve_faulted(seed, &Tracer::disabled());
        let trace = Arc::new(Trace::new());
        let (traced, snap) = serve_faulted(seed, &Tracer::recording(Arc::clone(&trace)));
        assert_eq!(
            traced, untraced,
            "seed {seed}: observing a run must not change its deliveries"
        );
        assert_eq!(
            snap.to_text(),
            untraced_snap.to_text(),
            "seed {seed}: observing a run must not change its metrics"
        );

        // Both sides accumulate the same f64 terms in dispatch order, so
        // the trace reconciles with the counter bit for bit.
        let mut trace_iv_lost = 0.0;
        let mut completed = 0usize;
        for event in trace.events() {
            if let EventKind::Completed { iv_lost, .. } = event.kind {
                trace_iv_lost += iv_lost;
                completed += 1;
            }
        }
        assert_eq!(completed, traced.completions.len());
        assert_eq!(
            trace_iv_lost.to_bits(),
            snap.faults_iv_lost_total.to_bits(),
            "seed {seed}: trace iv_lost {trace_iv_lost} must equal the metric {}",
            snap.faults_iv_lost_total
        );

        let counts = trace.counts();
        assert_eq!(
            counts.get("replanned").copied().unwrap_or(0),
            snap.faults_replans,
            "seed {seed}: each counted re-plan leaves one trace event"
        );
        assert_eq!(counts.get("sched_budget").copied().unwrap_or(0), 1);
        assert_eq!(counts.get("sched_chosen").copied().unwrap_or(0), 1);
        faults += snap.faults_syncs_slipped + snap.faults_syncs_dropped;
    }
    assert!(faults > 0, "the storm must revise the served timelines");
}
