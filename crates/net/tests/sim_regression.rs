//! Sim-path regression guard: compiling the network front door into the
//! workspace must not move a single byte of the simulated-clock path.
//!
//! The serve crate's golden scenario (seed `0x601D`, faulted, every
//! dispatch planned through the plan cache) re-runs *from this crate*
//! and is compared byte-for-byte against the serve crate's checked-in
//! fixture. If anything in the net crate's dependency surface perturbed
//! planning, dispatch or trace rendering, this fails without touching
//! the original suite.

use std::sync::Arc;

use ivdss_catalog::catalog::Catalog;
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

fn golden_catalog(seeds: &SeedFactory) -> Catalog {
    synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 4,
        mean_sync_period: 5.0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("golden catalog configuration is valid")
}

/// Re-runs the serve crate's golden scenario through direct method
/// calls, as the original suite does.
fn run_golden() -> String {
    let seeds = SeedFactory::new(SEED);
    let catalog = golden_catalog(&seeds);
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

/// The checked-in golden fixture still holds, byte for byte, when the
/// scenario runs from inside the net crate.
#[test]
fn golden_trace_unchanged_with_net_compiled_in() {
    let rendered = run_golden();
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../serve/tests/fixtures/golden_trace.txt"
    );
    let expected = std::fs::read_to_string(fixture)
        .expect("serve golden fixture exists (sibling crate checkout)");
    assert!(
        rendered == expected,
        "the sim-clock path diverged with ivdss-net in the build graph: \
         rendered {} bytes, fixture {} bytes — this is a regression, NOT \
         something to re-bless from here",
        rendered.len(),
        expected.len()
    );
}
