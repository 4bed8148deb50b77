//! End-to-end chaos regression over the public facade: a scripted
//! outage-and-recovery scenario.
//!
//! Unlike the seeded chaos suite (which samples fault plans), this test
//! pins exact fault times with [`FaultPlan::from_parts`]: one sync slip,
//! one sync drop, and one site outage with a known recovery time. A
//! fault-free twin engine runs the identical request stream, so the test
//! can assert the *shape* of the degradation — queries that must touch
//! the dead site wait for recovery (or re-plan around it), the IV loss
//! is recorded in the metrics registry, and once the outage clears the
//! faulted engine delivers exactly what the clean one does.

use ivdss::prelude::*;
use ivdss::serve::Completion;

const OUTAGE_START: f64 = 30.0;
const OUTAGE_END: f64 = 80.0;
/// Far enough out that the materialized (revised) timeline traces still
/// cover the recovery phase.
const HORIZON: f64 = 300.0;
/// Start of the recovery phase: the outage is long over and the arrival
/// gap has let every reservation calendar drain the floored backlog.
const RECOVERY_PHASE: f64 = 200.0;
const QUERIES: u64 = 24;

struct Env {
    catalog: Catalog,
    timelines: SyncTimelines,
    faults: FaultPlan,
    requests: Vec<QueryRequest>,
    down: SiteId,
}

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// Six tables over three sites; tables 0 and 1 replicated on known
/// periods so the scripted revisions target real sync points. The
/// outage takes down the site hosting table 2, which is *not*
/// replicated — queries reading it cannot plan around the outage and
/// must pay the recovery floor.
fn env() -> Env {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 6,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 0,
        seed: 0xE2E,
        ..SyntheticConfig::default()
    })
    .expect("catalog configuration is valid");
    let mut plan = ReplicationPlan::new();
    plan.add(t(0), ReplicaSpec::new(8.0));
    plan.add(t(1), ReplicaSpec::new(5.0));
    let catalog = base.with_replication(plan).expect("replication is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let down = catalog.site_of(t(2));

    let faults = FaultPlan::from_parts(
        vec![
            // Table 0's sync due at t=16 lands five time units late...
            TimelineRevision {
                revealed_at: SimTime::new(16.0),
                table: t(0),
                scheduled: SimTime::new(16.0),
                new_time: Some(SimTime::new(21.0)),
            },
            // ...and table 1's sync due at t=10 never happens.
            TimelineRevision {
                revealed_at: SimTime::new(10.0),
                table: t(1),
                scheduled: SimTime::new(10.0),
                new_time: None,
            },
        ],
        vec![Outage {
            site: down,
            start: SimTime::new(OUTAGE_START),
            end: SimTime::new(OUTAGE_END),
        }],
        (1.0, 1.0),
        0,
        SimTime::new(HORIZON),
    );

    // Three explicit phases: steady state before the outage, a burst of
    // dead-site queries during it, and a tail after a long quiet gap so
    // the floored backlog on the dead site's calendar has drained and
    // "recovery" means recovery, not "still digging out".
    let mixed: [&[u32]; 4] = [&[0, 2], &[1, 2, 3], &[0, 1], &[2, 4, 5]];
    let dead_site: [&[u32]; 3] = [&[0, 2], &[1, 2, 3], &[2, 4, 5]];
    let mut arrivals: Vec<(&[u32], f64)> = Vec::new();
    for i in 0..8usize {
        arrivals.push((mixed[i % 4], 2.0 + 3.5 * i as f64));
    }
    for i in 0..8usize {
        arrivals.push((dead_site[i % 3], OUTAGE_START + 2.0 + 4.0 * i as f64));
    }
    for i in 0..8usize {
        arrivals.push((mixed[i % 4], RECOVERY_PHASE + 8.0 * i as f64));
    }
    let requests = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, (tables, at))| {
            QueryRequest::new(
                QuerySpec::new(
                    QueryId::new(i as u64),
                    tables.iter().map(|&x| t(x)).collect(),
                ),
                SimTime::new(at),
            )
        })
        .collect();

    Env {
        catalog,
        timelines,
        faults,
        requests,
        down,
    }
}

/// Streams every request through an engine (faulted or clean) and
/// drains it, returning the completions and the metrics artifacts.
fn run(env: &Env, faults: Option<FaultPlan>) -> (Vec<Completion>, MetricsSnapshot, String) {
    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
    let model = StylizedCostModel::paper_fig4();
    let mut engine = match faults {
        Some(plan) => ServeEngine::with_faults(
            &env.catalog,
            &env.timelines,
            &model,
            config,
            DesClock::new(),
            plan,
        ),
        None => ServeEngine::new(
            &env.catalog,
            &env.timelines,
            &model,
            config,
            DesClock::new(),
        ),
    };
    let mut completions = Vec::new();
    for request in &env.requests {
        let report = engine.submit(request.clone()).expect("submission plans");
        assert!(report.shed.is_none(), "uncontended queue must not shed");
        completions.extend(report.completed);
    }
    completions.extend(engine.drain().expect("drain plans"));
    assert_eq!(engine.queue_depth(), 0, "drained engine must be empty");
    let snapshot = engine.snapshot();
    let text = snapshot.to_text();
    (completions, snapshot, text)
}

#[test]
fn scripted_outage_degrades_then_recovers() {
    let env = env();
    let (faulted, snapshot, text) = run(&env, Some(env.faults.clone()));
    let (clean, _, _) = run(&env, None);
    assert_eq!(faulted.len(), QUERIES as usize);
    assert_eq!(clean.len(), QUERIES as usize);

    // The scripted fault trace is fully accounted for in the registry.
    assert_eq!(snapshot.faults_syncs_slipped, 1);
    assert_eq!(snapshot.faults_syncs_dropped, 1);
    assert_eq!(snapshot.faults_outages, 1);
    assert!(
        snapshot.faults_replans >= 1,
        "outage-window dispatches touching the dead site must re-plan"
    );
    for line in [
        "serve_faults_syncs_slipped_total 1",
        "serve_faults_syncs_dropped_total 1",
        "serve_faults_outages_total 1",
        "serve_faults_replans_total",
        "serve_faults_iv_lost_sum",
    ] {
        assert!(
            text.contains(line),
            "metrics dump missing `{line}`:\n{text}"
        );
    }

    let by_id = |cs: &[Completion]| -> std::collections::HashMap<QueryId, Completion> {
        cs.iter().map(|c| (c.query, c.clone())).collect()
    };
    let faulted_by_id = by_id(&faulted);
    let clean_by_id = by_id(&clean);

    // Degradation: the faulted run delivers strictly less aggregate IV,
    // and the shortfall is what the registry recorded.
    let total = |m: &std::collections::HashMap<QueryId, Completion>| -> f64 {
        m.values()
            .map(|c| c.evaluation.information_value.value())
            .sum()
    };
    let (iv_faulted, iv_clean) = (total(&faulted_by_id), total(&clean_by_id));
    assert!(
        iv_faulted < iv_clean,
        "outage must cost information value ({iv_faulted} vs {iv_clean})"
    );
    let recorded: f64 = faulted.iter().map(|c| c.iv_lost).sum();
    assert!(
        (snapshot.faults_iv_lost_total - recorded).abs() < 1e-9,
        "registry IV loss {} must equal the per-completion sum {recorded}",
        snapshot.faults_iv_lost_total
    );
    assert!(snapshot.faults_iv_lost_total > 0.0);

    // During the outage, any delivered plan that still spans the dead
    // site cannot start remote work before recovery.
    let mut floored = 0;
    for request in &env.requests {
        let submitted = request.submitted_at.value();
        if !(OUTAGE_START..OUTAGE_END - 4.0).contains(&submitted) {
            continue;
        }
        if !request.query.tables().contains(&t(2)) {
            continue;
        }
        let c = &faulted_by_id[&request.id()];
        assert!(
            c.evaluation.service_start.value() >= OUTAGE_END - 1e-9,
            "query {:?} submitted at {submitted} read the dead site before \
             recovery (service start {})",
            c.query,
            c.evaluation.service_start.value()
        );
        floored += 1;
    }
    assert!(floored >= 5, "the outage window must cover several queries");

    // Recovery: once the outage clears and the calendars drain, the
    // faulted engine is indistinguishable from the clean twin — the
    // scripted revisions are ancient history by then (both tables have
    // since re-synced on schedule) and jitter is disabled.
    let mut recovered = 0;
    for request in &env.requests {
        if request.submitted_at.value() < RECOVERY_PHASE {
            continue;
        }
        let f = &faulted_by_id[&request.id()];
        let c = &clean_by_id[&request.id()];
        assert!(
            (f.evaluation.information_value.value() - c.evaluation.information_value.value()).abs()
                < 1e-9,
            "query {:?} after recovery must match the clean twin",
            f.query
        );
        assert!(f.iv_lost.abs() < 1e-9);
        recovered += 1;
    }
    assert!(recovered >= 5, "the tail of the stream must test recovery");

    // Site floors were real: the dead site is never booked inside the
    // outage window.
    assert_eq!(
        env.faults
            .site_floors(SimTime::new(OUTAGE_START))
            .get(&env.down),
        Some(&SimTime::new(OUTAGE_END))
    );
    for c in &faulted {
        let remote: Vec<TableId> = env.requests[c.query.raw() as usize]
            .query
            .tables()
            .iter()
            .copied()
            .filter(|table| !c.evaluation.local_tables.contains(table))
            .collect();
        if env.catalog.sites_spanned(&remote).contains(&env.down) {
            let start = c.evaluation.service_start.value();
            assert!(
                !(OUTAGE_START..OUTAGE_END).contains(&start),
                "query {:?} started service on the dead site at {start}",
                c.query
            );
        }
    }
}

#[test]
fn scripted_run_is_deterministic() {
    let env = env();
    let (_, _, text1) = run(&env, Some(env.faults.clone()));
    let (_, _, text2) = run(&env, Some(env.faults.clone()));
    assert_eq!(text1, text2, "scripted chaos must reproduce byte for byte");
}
