//! Golden-trace snapshot of a seeded faulted serve run.
//!
//! One fixed scenario (seed, catalog, fault plan, arrival stream) runs
//! with a recording tracer and its rendered trace is compared **byte
//! for byte** against the checked-in fixture
//! `tests/fixtures/golden_trace.txt`. Any change to event ordering,
//! payload fields or float formatting shows up as a fixture diff that
//! has to be reviewed and re-blessed deliberately:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p ivdss-serve --test golden_trace
//! ```
//!
//! A second in-process run of the identical scenario must also render
//! the identical bytes, so run-to-run determinism is asserted even
//! while a bless is in progress.

use std::sync::Arc;

use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_faults::observe::emit_fault_plan;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{Trace, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEED: u64 = 0x601D;
const QUERIES: usize = 12;

/// Runs the fixed golden scenario once, recording into a fresh trace,
/// and returns the rendered bytes.
fn run_golden() -> String {
    let seeds = SeedFactory::new(SEED);
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 4,
        mean_sync_period: 5.0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("golden catalog configuration is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let model = StylizedCostModel::paper_fig4();
    let faults = FaultPlan::generate(
        &FaultConfig {
            slip_probability: 0.3,
            drop_probability: 0.1,
            slip_delay: (1.0, 8.0),
            outage_mtbf: 60.0,
            outage_duration: (5.0, 20.0),
            jitter: (1.0, 1.4),
            horizon: SimTime::new(200.0),
        },
        &timelines,
        catalog.site_count(),
        seeds.seed_for("faults"),
    );
    let templates = random_queries(&RandomQueryConfig {
        queries: 6,
        tables: 8,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    let mut stream = ArrivalStream::new(templates, 2.0, seeds.seed_for("arrivals"));

    // Plans come from the plan cache (`cache_lookup` lines); the
    // outage re-plans still snapshot the full search telemetry (waves,
    // bound trajectory).
    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));

    let trace = Arc::new(Trace::new());
    let tracer = Tracer::recording(Arc::clone(&trace));
    emit_fault_plan(&faults, &tracer);
    let mut engine = ServeEngine::with_faults(
        &catalog,
        &timelines,
        &model,
        config,
        DesClock::new(),
        faults,
    )
    .with_tracer(tracer);
    for _ in 0..QUERIES {
        engine
            .submit(stream.next_request())
            .expect("golden submission plans");
    }
    engine.drain().expect("golden drain plans");
    trace.render()
}

#[test]
fn golden_trace_matches_fixture_byte_for_byte() {
    let rendered = run_golden();

    // In-process determinism first: two identical runs, identical bytes.
    let again = run_golden();
    assert_eq!(
        rendered.as_bytes(),
        again.as_bytes(),
        "two identical seeded runs must render byte-identical traces"
    );

    // The scenario must exercise the interesting paths, or the golden
    // file degenerates into a vacuous snapshot.
    for needle in [
        "fault_slip_planned",
        "fault_outage_planned",
        "submitted",
        " admission ",
        "cache_lookup",
        "cache_invalidated",
        "revision_applied",
        "search_started",
        "search_wave",
        "search_bound",
        "search_finished",
        "sync_delivered",
        " completed ",
    ] {
        assert!(
            rendered.contains(needle),
            "golden scenario no longer exercises {needle:?}"
        );
    }

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_trace.txt"
    );
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(fixture, &rendered).expect("bless writes the fixture");
    }
    let expected = std::fs::read_to_string(fixture).expect(
        "golden fixture missing — regenerate with \
         GOLDEN_BLESS=1 cargo test -p ivdss-serve --test golden_trace",
    );
    assert!(
        rendered == expected,
        "trace diverged from tests/fixtures/golden_trace.txt \
         (review the diff, then re-bless with GOLDEN_BLESS=1):\n\
         rendered {} bytes, fixture {} bytes",
        rendered.len(),
        expected.len()
    );
}
