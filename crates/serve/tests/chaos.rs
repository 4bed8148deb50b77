//! Deterministic chaos suite for the serving engine.
//!
//! Runs the engine under a generated [`FaultPlan`] across a wide band of
//! seeds and asserts structural invariants that must survive *any*
//! fault schedule:
//!
//! 1. **Quiescence** — after the stream ends and the engine drains,
//!    nothing is left queued and every submitted query was either
//!    delivered or shed.
//! 2. **No double-booking** — the reservation calendars carry exactly
//!    one local booking per delivered query, one remote booking per
//!    (query, spanned remote site) pair, and the local busy time is
//!    exactly the sum of the delivered local service costs.
//! 3. **Degradation bound** — a delivered (possibly re-planned) query
//!    never exceeds the information value a fault-free planner promised
//!    at submission; recorded IV loss is finite and non-negative.
//! 4. **Cache hygiene** — after every submission, no cache entry's
//!    recorded sync phase disagrees with the engine's current timeline
//!    belief (an invalidated phase is never servable).
//! 5. **Determinism** — the same seed reproduces the identical metrics
//!    text dump, byte for byte.
//!
//! The suite is a plain seeded loop (not proptest): every seed in the
//! band runs on every invocation, so a failure names a seed that will
//! fail forever.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::planner::{IvqpPlanner, Planner};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{Completion, ServeConfig, ServeEngine};
use ivdss_serve::loadgen::LoadReport;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEEDS: u64 = 120;
const QUERIES: usize = 40;
const HORIZON: f64 = 600.0;

struct Scenario {
    catalog: Catalog,
    timelines: SyncTimelines,
    model: StylizedCostModel,
    rates: DiscountRates,
    faults: FaultPlan,
    requests: Vec<QueryRequest>,
}

fn scenario(seed: u64) -> Scenario {
    let seeds = SeedFactory::new(seed);
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 4,
        mean_sync_period: 5.0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("chaos catalog configuration is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let faults = FaultPlan::generate(
        &FaultConfig {
            slip_probability: 0.25,
            drop_probability: 0.1,
            slip_delay: (1.0, 8.0),
            outage_mtbf: 120.0,
            outage_duration: (5.0, 25.0),
            jitter: (1.0, 1.4),
            horizon: SimTime::new(HORIZON),
        },
        &timelines,
        catalog.site_count(),
        seeds.seed_for("faults"),
    );
    let templates = random_queries(&RandomQueryConfig {
        queries: 8,
        tables: 8,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    let mut stream = ArrivalStream::new(templates, 1.5, seeds.seed_for("arrivals"));
    let requests = (0..QUERIES).map(|_| stream.next_request()).collect();
    Scenario {
        catalog,
        timelines,
        model: StylizedCostModel::paper_fig4(),
        rates: DiscountRates::new(0.01, 0.05),
        faults,
        requests,
    }
}

/// Runs the scenario's request stream through a faulted engine,
/// asserting cache hygiene after every step, and returns the report and
/// the metrics text dump.
fn run(s: &Scenario) -> (LoadReport, String) {
    let mut config = ServeConfig::new(s.rates);
    // A finite queue so IV-aware shedding participates in some seeds.
    config.queue_capacity = 16;
    let mut engine = ServeEngine::with_faults(
        &s.catalog,
        &s.timelines,
        &s.model,
        config,
        DesClock::new(),
        s.faults.clone(),
    );
    let mut report = LoadReport::default();
    for request in &s.requests {
        let outcome = engine.submit(request.clone()).expect("submission plans");
        report.shed.extend(outcome.shed);
        report.completions.extend(outcome.completed);
        assert_eq!(
            engine
                .cache()
                .stale_entries(engine.timelines(), engine.now()),
            0,
            "cache holds an entry with an invalidated sync phase"
        );
    }
    report
        .completions
        .extend(engine.drain().expect("drain plans"));

    // Invariant 1: quiescence.
    assert_eq!(engine.queue_depth(), 0, "drained engine must be empty");

    assert_eq!(
        report.completions.len() + report.shed.len(),
        s.requests.len(),
        "every query is either delivered or shed"
    );

    // Invariant 2: no double-booking on any calendar.
    let local = engine.facilities().local();
    assert_eq!(
        local.jobs_booked(),
        report.completions.len() as u64,
        "exactly one local booking per delivered query"
    );
    let booked_local: f64 = report
        .completions
        .iter()
        .map(|c| c.evaluation.cost.local_service().value())
        .sum();
    assert!(
        (local.total_busy_time().value() - booked_local).abs() < 1e-6,
        "local busy time {} must equal the sum of local service costs {}",
        local.total_busy_time().value(),
        booked_local
    );
    let by_id: std::collections::HashMap<_, _> = s.requests.iter().map(|r| (r.id(), r)).collect();
    let expected_remote: u64 = report
        .completions
        .iter()
        .map(|c| {
            let request = by_id[&c.query];
            let remote: Vec<_> = request
                .query
                .tables()
                .iter()
                .copied()
                .filter(|t| !c.evaluation.local_tables.contains(t))
                .collect();
            if remote.is_empty() {
                0
            } else {
                s.catalog.sites_spanned(&remote).len() as u64
            }
        })
        .sum();
    let actual_remote: u64 = (0..s.catalog.site_count())
        .map(|i| {
            engine
                .facilities()
                .remote(ivdss_catalog::ids::SiteId::new(i as u32))
                .jobs_booked()
        })
        .sum();
    assert_eq!(
        actual_remote, expected_remote,
        "one remote booking per (query, spanned site) pair"
    );

    // Invariant 3: the fault-free planning bound is never beaten.
    //
    // Strictly speaking this is an empirical bound over the fixed seed
    // band, not a theorem: a slipped sync carries data current as of its
    // late completion, which can hand one query a refresh sooner than
    // its next nominal one (see core/tests/differential.rs). In the
    // served pipeline that edge is swamped by queuing, jitter and floor
    // degradation, and the band is deterministic, so the assertion is
    // stable.
    let nominal_ctx = PlanContext {
        catalog: &s.catalog,
        timelines: &s.timelines,
        model: &s.model,
        rates: s.rates,
        queues: &NoQueues,
    };
    for c in &report.completions {
        let request = by_id[&c.query];
        let ideal = IvqpPlanner::new()
            .select_plan(&nominal_ctx, request)
            .expect("fault-free planning succeeds");
        let delivered = c.evaluation.information_value.value();
        assert!(
            delivered <= ideal.information_value.value() + 1e-9,
            "query {:?}: delivered IV {delivered} beats the fault-free bound {}",
            c.query,
            ideal.information_value.value()
        );
        assert!(
            c.iv_lost.is_finite() && c.iv_lost >= 0.0,
            "IV loss must be finite and non-negative, got {}",
            c.iv_lost
        );
    }

    let text = engine.snapshot().to_text();
    (report, text)
}

#[test]
fn chaos_invariants_hold_across_the_seed_band() {
    let mut faulted_seeds = 0u64;
    let mut replans = 0usize;
    for seed in 0..SEEDS {
        let s = scenario(seed);
        if !s.faults.is_empty() {
            faulted_seeds += 1;
        }
        let (report, _) = run(&s);
        replans += report
            .completions
            .iter()
            .filter(|c: &&Completion| c.replanned)
            .count();
    }
    // The band must actually exercise the machinery, not vacuously pass.
    assert!(
        faulted_seeds > SEEDS * 9 / 10,
        "nearly every seed should generate faults, got {faulted_seeds}/{SEEDS}"
    );
    assert!(
        replans > 0,
        "some dispatches across the band must hit an outage and re-plan"
    );
}

#[test]
fn same_seed_reproduces_identical_metrics() {
    for seed in [0, 17, 63, 111] {
        let s1 = scenario(seed);
        let s2 = scenario(seed);
        assert_eq!(s1.faults, s2.faults, "fault generation is deterministic");
        let (_, text1) = run(&s1);
        let (_, text2) = run(&s2);
        assert_eq!(
            text1, text2,
            "seed {seed}: metrics text dumps must match byte for byte"
        );
    }
}

#[test]
fn faulted_run_degrades_but_still_delivers() {
    // One representative seed, inspected more closely: the engine under
    // faults still delivers most queries, and the degradation shows up
    // in the fault counters rather than as a stall or panic.
    let s = scenario(7);
    assert!(!s.faults.is_empty());
    let (report, text) = run(&s);
    assert!(
        report.completions.len() >= QUERIES * 3 / 4,
        "most queries still complete under chaos, got {}",
        report.completions.len()
    );
    assert!(text.contains("serve_faults_syncs_slipped_total"));
    assert!(text.contains("serve_faults_iv_lost_total"));
}
