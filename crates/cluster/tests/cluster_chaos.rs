//! Cluster chaos suite: a single-shard outage mid-run loses nothing.
//!
//! Over a band of seeds, a 3-shard cluster with faults armed takes a
//! full-shard outage while queues are non-empty. Two families of
//! assertions:
//!
//! 1. **Conservation** — every submitted query is either completed
//!    somewhere or shed with its IV accounted; nothing disappears when
//!    a shard goes down (its queue is failed over to the survivors).
//! 2. **Reconciliation** — the shared trace and the metrics registries
//!    are two views of the same run and must agree *bit for bit*:
//!    per-shard completion counts, delivered-IV sums, fault-degradation
//!    IV sums (`f64::to_bits` equality, same accumulation order), and
//!    the cluster counters (routing, steals, failover) against their
//!    event counts.
//!
//! A run with several outage windows, on one shard and on two, one of
//! them between two driving points, checks that each window is counted
//! once and failed over only where the cluster saw it open.
//!
//! The same scenario, served by a bare engine and by a 2-shard cluster,
//! also checks the text exposition: well-formed histograms, one line
//! per name and label set, cluster histograms that are the bucket-wise
//! sum of the shard sections, and a trace that adds only its
//! `obs_events_total` counters.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use ivdss_catalog::ids::ShardId;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::Catalog;
use ivdss_cluster::{
    Cluster, ClusterConfig, ClusterSnapshot, ShardOutage, ShardRouter, ShardTimelines,
};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{AdmissionVerdict, EventKind, Trace, TraceEvent, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::{SimDuration, SimTime};
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEEDS: u64 = 20;
const SHARDS: usize = 3;
const QUERIES: usize = 24;

/// The seeded chaos world every test here serves.
struct Scenario {
    catalog: Catalog,
    timelines: SyncTimelines,
    faults: FaultPlan,
    stream: ArrivalStream,
    serve: ServeConfig,
    shard_seed: u64,
}

fn scenario(seed: u64) -> Scenario {
    let seeds = SeedFactory::new(seed);
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 9,
        sites: 3,
        placement: PlacementStrategy::Uniform,
        replicated_tables: 6,
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
            slip_delay: (1.0, 6.0),
            outage_mtbf: 90.0,
            outage_duration: (4.0, 10.0),
            jitter: (1.0, 1.3),
            horizon: SimTime::new(300.0),
        },
        &timelines,
        catalog.site_count(),
        seeds.seed_for("faults"),
    );
    let templates = random_queries(&RandomQueryConfig {
        queries: 6,
        tables: 9,
        max_tables_per_query: 3,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    let stream = ArrivalStream::new(templates, 0.5, seeds.seed_for("arrivals"));

    // Zero dispatch tolerance builds real queues, so the mid-run shard
    // outage evacuates a non-empty queue on most seeds.
    let mut serve = ServeConfig::new(DiscountRates::new(0.05, 0.01));
    serve.dispatch_backlog = SimDuration::ZERO;
    Scenario {
        catalog,
        timelines,
        faults,
        stream,
        serve,
        shard_seed: seeds.seed_for("shards"),
    }
}

/// One seeded chaos run on `shards` shards, one of which goes down
/// mid-run; returns the final snapshot and the cluster's exposition.
fn run_cluster(seed: u64, shards: usize, tracer: Tracer) -> (ClusterSnapshot, String) {
    let mut s = scenario(seed);
    let assignment =
        ShardAssignment::partition(&s.catalog, shards, ShardStrategy::BySite, s.shard_seed);
    let router = ShardRouter::new(assignment);
    let shard_timelines = ShardTimelines::build(&s.timelines, &router);
    let model = StylizedCostModel::paper_fig4();
    // The down shard rotates with the seed so every shard position gets
    // hit across the band.
    let victim = ShardId::new((seed % shards as u64) as u32);
    let mut cluster = Cluster::new(
        &s.catalog,
        &shard_timelines,
        &model,
        router,
        ClusterConfig {
            serve: s.serve,
            steal: true,
        },
        DesClock::new(),
    )
    .with_tracer(tracer)
    .with_faults(s.faults)
    .with_shard_outages(vec![ShardOutage::new(
        victim,
        SimTime::new(3.0),
        SimTime::new(10.0),
    )]);

    for _ in 0..QUERIES {
        cluster
            .submit(s.stream.next_request())
            .expect("chaos submission plans");
    }
    cluster.drain().expect("chaos drain plans");
    (cluster.snapshot(), cluster.exposition())
}

/// One seeded chaos run on [`SHARDS`] shards; returns the final
/// snapshot and the trace.
fn run_chaos(seed: u64) -> (ClusterSnapshot, Vec<TraceEvent>) {
    let trace = Arc::new(Trace::new());
    let (snapshot, _) = run_cluster(seed, SHARDS, Tracer::recording(Arc::clone(&trace)));
    (snapshot, trace.events())
}

/// The same scenario served by one faulted engine; returns its
/// exposition.
fn run_engine(seed: u64, tracer: Tracer) -> String {
    let mut s = scenario(seed);
    let model = StylizedCostModel::paper_fig4();
    let mut engine = ServeEngine::with_faults(
        &s.catalog,
        &s.timelines,
        &model,
        s.serve,
        DesClock::new(),
        s.faults,
    )
    .with_tracer(tracer);
    for _ in 0..QUERIES {
        engine
            .submit(s.stream.next_request())
            .expect("chaos submission plans");
    }
    engine.drain().expect("chaos drain plans");
    engine.exposition()
}

/// Folds `values` in event order — the same order the engine's metrics
/// accumulated in — so sums can be compared with `f64::to_bits`.
fn bitwise_sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| acc + v)
}

#[test]
fn single_shard_outage_loses_no_queries_cluster_wide() {
    let mut total_failover_rerouted = 0u64;
    for seed in 0..SEEDS {
        let (snapshot, _) = run_chaos(seed);

        assert_eq!(
            snapshot.queries_submitted, QUERIES as u64,
            "seed {seed}: every arrival reaches the front door"
        );
        // With two shards always live, nothing is ever unroutable: a
        // query is completed somewhere or shed with its IV accounted in
        // the shedding shard's metrics.
        assert_eq!(snapshot.unroutable_shed, 0, "seed {seed}");
        assert_eq!(
            snapshot.queries_completed() + snapshot.queries_shed(),
            QUERIES as u64,
            "seed {seed}: completions + shed must cover every submission"
        );
        assert_eq!(snapshot.shard_outages, 1, "seed {seed}: one outage fired");
        assert_eq!(
            snapshot.failover_shed, 0,
            "seed {seed}: failover never drops while survivors are live"
        );
        total_failover_rerouted += snapshot.failover_rerouted;
    }
    assert!(
        total_failover_rerouted > 0,
        "the outage band must evacuate non-empty queues somewhere"
    );
}

/// Four windows on three shards, handed over out of order: two on shard
/// 0, one on shard 1 that overlaps shard 0's second, and one on shard 2
/// that opens and closes between the driving points t=20.5 and t=21.5.
/// Queries arrive once a time unit, so each submission is a driving
/// point.
#[test]
fn several_outage_windows_each_open_once_and_fail_over_where_seen() {
    let mut s = scenario(3);
    let assignment =
        ShardAssignment::partition(&s.catalog, SHARDS, ShardStrategy::BySite, s.shard_seed);
    let router = ShardRouter::new(assignment);
    let shard_timelines = ShardTimelines::build(&s.timelines, &router);
    let model = StylizedCostModel::paper_fig4();
    let trace = Arc::new(Trace::new());
    let window = |shard: u32, start: f64, end: f64| {
        ShardOutage::new(ShardId::new(shard), SimTime::new(start), SimTime::new(end))
    };
    let mut cluster = Cluster::new(
        &s.catalog,
        &shard_timelines,
        &model,
        router,
        ClusterConfig {
            serve: s.serve,
            steal: true,
        },
        DesClock::new(),
    )
    .with_tracer(Tracer::recording(Arc::clone(&trace)))
    .with_shard_outages(vec![
        window(2, 20.6, 21.2),
        window(0, 14.0, 18.0),
        window(1, 10.0, 16.0),
        window(0, 3.0, 8.0),
    ]);
    for i in 0..QUERIES {
        let mut request = s.stream.next_request();
        request.submitted_at = SimTime::new(0.5 + i as f64);
        cluster.submit(request).expect("submission plans");
    }
    cluster.drain().expect("drain plans");

    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.shard_outages, 4, "every window opens once");
    assert_eq!(snapshot.unroutable_shed, 0, "some shard is always live");
    assert_eq!(snapshot.failover_shed, 0);
    assert_eq!(
        snapshot.queries_completed() + snapshot.queries_shed(),
        QUERIES as u64,
        "completions + shed must cover every submission"
    );
    let events = trace.events();
    let seen = |pick: fn(&EventKind) -> Option<ShardId>| -> Vec<(f64, u32)> {
        events
            .iter()
            .filter_map(|e| pick(&e.kind).map(|shard| (e.at.value(), shard.index() as u32)))
            .collect()
    };
    let opened = seen(|kind| match kind {
        EventKind::ShardOutageStarted { shard, .. } => Some(*shard),
        _ => None,
    });
    assert_eq!(opened, vec![(3.5, 0), (10.5, 1), (14.5, 0), (21.5, 2)]);
    let failed_over = seen(|kind| match kind {
        EventKind::ShardFailover { shard, .. } => Some(*shard),
        _ => None,
    });
    assert_eq!(failed_over, vec![(3.5, 0), (10.5, 1), (14.5, 0)]);
}

#[test]
fn trace_and_metrics_reconcile_bit_for_bit() {
    for seed in 0..SEEDS {
        let (snapshot, events) = run_chaos(seed);

        // Per-shard reconciliation of the completion stream.
        for (idx, shard) in snapshot.shards.iter().enumerate() {
            let tag = Some(ShardId::new(idx as u32));
            let completions: Vec<(f64, f64)> = events
                .iter()
                .filter(|e| e.shard == tag)
                .filter_map(|e| match &e.kind {
                    EventKind::Completed {
                        delivered_iv,
                        iv_lost,
                        ..
                    } => Some((*delivered_iv, *iv_lost)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                completions.len() as u64,
                shard.queries_completed,
                "seed {seed} shard {idx}: completion count"
            );
            let trace_iv = bitwise_sum(completions.iter().map(|(iv, _)| *iv));
            assert_eq!(
                trace_iv.to_bits(),
                shard.total_delivered_iv.to_bits(),
                "seed {seed} shard {idx}: delivered-IV sum must match bit for bit"
            );
            let trace_iv_lost = bitwise_sum(completions.iter().map(|(_, lost)| *lost));
            assert_eq!(
                trace_iv_lost.to_bits(),
                shard.faults_iv_lost_total.to_bits(),
                "seed {seed} shard {idx}: iv-lost sum must match bit for bit"
            );
            let shed_events = events
                .iter()
                .filter(|e| e.shard == tag)
                .filter(|e| {
                    matches!(
                        &e.kind,
                        EventKind::Admission { verdict, .. }
                            if !matches!(verdict, AdmissionVerdict::Admitted)
                    )
                })
                .count();
            assert_eq!(
                shed_events as u64, shard.queries_shed,
                "seed {seed} shard {idx}: one non-admit verdict per shed query"
            );
        }

        // Cluster counters against their (unscoped) event counts.
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count() as u64;
        assert_eq!(
            count("shard_routed"),
            snapshot.routed_full + snapshot.routed_partial,
            "seed {seed}: routed events"
        );
        assert_eq!(
            count("shard_stolen"),
            snapshot.steals,
            "seed {seed}: steals"
        );
        assert_eq!(
            count("shard_outage_started"),
            snapshot.shard_outages,
            "seed {seed}: outages"
        );
        let (rerouted, shed) = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ShardFailover { rerouted, shed, .. } => Some((*rerouted, *shed)),
                _ => None,
            })
            .fold((0u64, 0u64), |(r, s), (er, es)| {
                (r + er as u64, s + es as u64)
            });
        assert_eq!(
            (rerouted, shed),
            (snapshot.failover_rerouted, snapshot.failover_shed),
            "seed {seed}: failover accounting"
        );

        // The cluster-wide aggregates are the shard sums, bit for bit.
        let shard_iv = bitwise_sum(snapshot.shards.iter().map(|s| s.total_delivered_iv));
        assert_eq!(
            shard_iv.to_bits(),
            snapshot.total_delivered_iv().to_bits(),
            "seed {seed}: cluster IV is the ordered shard sum"
        );
    }
}

/// One sample line of a text exposition.
struct Sample<'a> {
    name: &'a str,
    /// The label set without `le`, as written (empty for none).
    labels: String,
    le: Option<&'a str>,
    value: &'a str,
}

fn samples(text: &str) -> Vec<Sample<'_>> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("`series value`");
            let (name, inner) = match series.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}').expect("closed labels")),
                None => (series, ""),
            };
            let mut le = None;
            let mut labels = Vec::new();
            for pair in inner.split(',').filter(|p| !p.is_empty()) {
                match pair.strip_prefix("le=") {
                    Some(bound) => le = Some(bound.trim_matches('"')),
                    None => labels.push(pair),
                }
            }
            Sample {
                name,
                labels: labels.join(","),
                le,
                value,
            }
        })
        .collect()
}

/// Checks what every exposition must satisfy: no two lines share a
/// name and label set, and every histogram has cumulative `_bucket`
/// lines ending at `le="+Inf"`, a `_sum`, and a `_count` equal to the
/// `+Inf` bucket. Returns each histogram's buckets by (name, labels).
fn check_well_formed(text: &str) -> BTreeMap<(String, String), Vec<(String, u64)>> {
    let mut seen = HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, _) = line.rsplit_once(' ').expect("`series value`");
        assert!(seen.insert(series), "duplicate series `{series}`");
    }
    let parsed = samples(text);
    let scalar: HashMap<(&str, &str), &str> = parsed
        .iter()
        .filter(|s| s.le.is_none())
        .map(|s| ((s.name, s.labels.as_str()), s.value))
        .collect();
    let mut histograms: BTreeMap<(String, String), Vec<(String, u64)>> = BTreeMap::new();
    for s in &parsed {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            let le = s.le.expect("every bucket has an `le`");
            histograms
                .entry((base.to_string(), s.labels.clone()))
                .or_default()
                .push((le.to_string(), s.value.parse().expect("integer bucket")));
        }
    }
    assert!(!histograms.is_empty(), "the exposition has histograms");
    for ((base, labels), buckets) in &histograms {
        let (last_le, inf) = buckets.last().expect("at least one bucket");
        assert_eq!(last_le, "+Inf", "{base}{{{labels}}} ends at +Inf");
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "{base}{{{labels}}} buckets are cumulative"
        );
        let sum = format!("{base}_sum");
        let count = format!("{base}_count");
        let sum = scalar.get(&(sum.as_str(), labels.as_str()));
        assert!(sum.is_some(), "{base}{{{labels}}} has a _sum");
        let count = scalar.get(&(count.as_str(), labels.as_str()));
        assert_eq!(
            count.map(|c| c.parse::<u64>().expect("integer count")),
            Some(*inf),
            "{base}{{{labels}}} _count equals its +Inf bucket"
        );
    }
    histograms
}

/// `text` without the trace's per-kind event counters.
fn without_event_counters(text: &str) -> String {
    text.lines()
        .filter(|line| !line.starts_with("obs_events_total{"))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn bare_engine_exposition_is_well_formed_and_tracing_adds_only_event_counters() {
    for seed in 0..4 {
        let untraced = run_engine(seed, Tracer::disabled());
        let traced = run_engine(seed, Tracer::recording(Arc::new(Trace::new())));
        let histograms = check_well_formed(&traced);
        check_well_formed(&untraced);
        assert_eq!(
            histograms
                .keys()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            [
                "serve_cl_minutes",
                "serve_delivered_iv",
                "serve_faults_iv_lost",
                "serve_sl_minutes"
            ],
            "seed {seed}: a bare engine renders its four histograms unlabelled"
        );
        assert!(traced.contains("obs_events_total{kind=\"completed\"}"));
        assert!(!untraced.contains("obs_events_total"));
        assert_eq!(
            without_event_counters(&traced),
            untraced,
            "seed {seed}: tracing may add only obs_events_total lines"
        );
    }
}

#[test]
fn two_shard_cluster_exposition_labels_shards_and_merges_them_exactly() {
    const PAIRS: [(&str, &str); 4] = [
        ("cluster_cl_minutes", "serve_cl_minutes"),
        ("cluster_sl_minutes", "serve_sl_minutes"),
        ("cluster_delivered_iv", "serve_delivered_iv"),
        ("cluster_faults_iv_lost", "serve_faults_iv_lost"),
    ];
    const DUPLICATES: [&str; 6] = [
        "serve_queries_completed_total",
        "serve_delivered_iv_total",
        "serve_faults_iv_lost_total",
        "cluster_queries_completed",
        "cluster_total_delivered_iv",
        "cluster_faults_iv_lost_total",
    ];
    let mut lost_samples = 0;
    for seed in 0..4 {
        let (snapshot, untraced) = run_cluster(seed, 2, Tracer::disabled());
        let (_, traced) = run_cluster(seed, 2, Tracer::recording(Arc::new(Trace::new())));
        assert_eq!(
            without_event_counters(&traced),
            untraced,
            "seed {seed}: tracing may add only obs_events_total lines"
        );
        let histograms = check_well_formed(&traced);
        let shard_labels = ["shard=\"0\"", "shard=\"1\""];
        let parsed = samples(&traced);
        let value = |name: &str, labels: &str| -> &str {
            parsed
                .iter()
                .find(|s| s.name == name && s.labels == labels)
                .map(|s| s.value)
                .unwrap_or_else(|| panic!("seed {seed}: missing {name}{{{labels}}}"))
        };
        for (cluster, serve) in PAIRS {
            let merged = &histograms[&(cluster.to_string(), String::new())];
            let shards: Vec<_> = shard_labels
                .iter()
                .map(|l| &histograms[&(serve.to_string(), l.to_string())])
                .collect();
            for (i, (le, count)) in merged.iter().enumerate() {
                let shard_sum: u64 = shards
                    .iter()
                    .map(|h| {
                        assert_eq!(&h[i].0, le, "same bucket layout");
                        h[i].1
                    })
                    .sum();
                assert_eq!(
                    *count, shard_sum,
                    "seed {seed}: {cluster} le={le} is the shard sum"
                );
            }
            // The merged `_sum` adds the shard sums in shard order.
            let shard_total = shard_labels
                .iter()
                .map(|l| value(&format!("{serve}_sum"), l).parse::<f64>().unwrap());
            assert_eq!(
                bitwise_sum(shard_total).to_bits(),
                value(&format!("{cluster}_sum"), "")
                    .parse::<f64>()
                    .unwrap()
                    .to_bits(),
                "seed {seed}: {cluster}_sum is the ordered shard sum"
            );
        }
        assert_eq!(
            value("cluster_cl_minutes_count", "")
                .parse::<u64>()
                .unwrap(),
            snapshot.queries_completed()
        );
        // Each number once: these equal a histogram's `_count` or `_sum`.
        for s in &parsed {
            assert!(
                !DUPLICATES.contains(&s.name),
                "seed {seed}: {} repeats a histogram line",
                s.name
            );
        }
        // Every cluster counter is named `_total`; the shard count is a
        // gauge.
        let histogram_series: HashSet<String> = histograms
            .keys()
            .flat_map(|(base, _)| ["_bucket", "_sum", "_count"].map(|end| format!("{base}{end}")))
            .collect();
        for s in parsed.iter().filter(|s| {
            s.name.starts_with("cluster_")
                && s.name != "cluster_shards"
                && !histogram_series.contains(s.name)
        }) {
            assert!(
                s.name.ends_with("_total"),
                "seed {seed}: counter {} must end in _total",
                s.name
            );
        }
        lost_samples += snapshot
            .shards
            .iter()
            .map(|s| s.faults_iv_lost.count())
            .sum::<u64>();
    }
    assert!(lost_samples > 0, "the faulted band must record IV lost");
}
