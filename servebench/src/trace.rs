//! The traced run (`--trace 1`): per-layer numbers, measured apart from
//! the timed socket run.
//!
//! Spans are recorded only here, around calls into the library's public
//! functions, and kept in memory until the run ends. The traced run has
//! three parts:
//!
//! 1. the socket run itself, one client span per frame, plus the
//!    server's `ServerStats`;
//! 2. the same stream served in process through
//!    [`QueryService::submit`], one span per call, with the engine
//!    counters read afterwards and the live calendars and fault floors
//!    sampled at every tenth of the stream;
//! 3. the stream replayed through single layers: wire decode and encode,
//!    routing, the plan cache under [`NoQueues`], the scatter-and-gather
//!    search, admission at capacity, live re-evaluation against the
//!    calendars part 2 left behind, and metrics recording.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use ivdss_catalog::ids::SiteId;
use ivdss_cluster::{Cluster, ShardRouter};
use ivdss_core::plan::{evaluate_plan, FacilityQueues, NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_core::starvation::AgingPolicy;
use ivdss_faults::FaultPlan;
use ivdss_net::proto::{Request, Response};
use ivdss_net::server::ServerStats;
use ivdss_net::QueryService;
use ivdss_replication::events::SyncEventCursor;
use ivdss_serve::admission::AdmissionQueue;
use ivdss_serve::cache::{CacheOutcome, PlanCache};
use ivdss_serve::clock::DesClock;
use ivdss_serve::metrics::ServeMetrics;
use ivdss_simkernel::time::{SimDuration, SimTime};

use crate::check::{Answer, Ledger};
use crate::client::{Exchange, Frames};
use crate::report::{mean, nearest_rank, share, Metric};
use crate::workload::World;

/// Repetitions of one timed probe at a sample point.
const PROBE_REPS: u32 = 64;
/// Queries replayed through the plan cache.
const CACHE_REPLAY: usize = 4_000;
/// Queries sampled for the search, admission and re-evaluation replays.
const SAMPLED: usize = 500;
/// Points at which calendars and fault floors are sampled.
const SAMPLE_POINTS: usize = 10;

/// One recorded span; times are offsets from the trace's start.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// The in-memory span store.
struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store timing from `base`.
    fn new(base: Instant) -> Spans {
        Spans {
            base,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start: start.saturating_duration_since(self.base),
            end: end.saturating_duration_since(self.base),
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Spans::close`] sets its end.
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes an open span now.
    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now().saturating_duration_since(self.base);
    }

    /// Times one call of `f` as a span under `parent`.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, Some(parent), start, end);
        (out, end - start)
    }

    /// Times a loop of calls as one span and returns the mean
    /// microseconds per call (zero for no calls).
    fn per_call(
        &mut self,
        name: &'static str,
        parent: usize,
        calls: usize,
        f: impl FnOnce(),
    ) -> f64 {
        let ((), elapsed) = self.time(name, parent, f);
        if calls == 0 {
            0.0
        } else {
            elapsed.as_secs_f64() * 1e6 / calls as f64
        }
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Calendars and fault floors at one point of the in-process run.
struct Sample {
    /// Queries submitted when the sample was taken.
    queries: usize,
    /// Mean `Calendar::probe` on the local calendars, µs.
    local_probe_us: f64,
    /// Mean `Calendar::probe` on the remote calendars, µs.
    remote_probe_us: f64,
    /// Mean `FaultPlan::site_floors`, µs.
    site_floors_us: f64,
    /// Jobs booked on every calendar of every shard.
    jobs: u64,
}

/// Mean microseconds per call of `reps` calls of `f`.
fn time_calls(reps: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Times the live calendars and fault floors of every shard at the
/// cluster's current time.
fn sample(cluster: &Cluster<'_, DesClock>, sites: usize, queries: usize) -> Sample {
    let now = cluster.now();
    let no_faults = FaultPlan::none(now);
    let (mut local, mut remote, mut floors) = (Vec::new(), Vec::new(), Vec::new());
    let mut jobs = 0;
    for engine in cluster.engines() {
        let calendars = engine.facilities();
        local.push(time_calls(PROBE_REPS, || {
            black_box(calendars.local().probe(black_box(now), SimDuration::ZERO));
        }));
        jobs += calendars.local().jobs_booked();
        for site in 0..sites {
            let calendar = calendars.remote(SiteId::new(site as u32));
            remote.push(time_calls(PROBE_REPS, || {
                black_box(calendar.probe(black_box(now), SimDuration::ZERO));
            }));
            jobs += calendar.jobs_booked();
        }
        let plan = engine.fault_plan().unwrap_or(&no_faults);
        floors.push(time_calls(PROBE_REPS, || {
            black_box(plan.site_floors(black_box(now)));
        }));
    }
    Sample {
        queries,
        local_probe_us: mean(&local),
        remote_probe_us: mean(&remote),
        site_floors_us: mean(&floors),
        jobs,
    }
}

/// What part 2 measured.
struct InProcess {
    per_query_us: Vec<f64>,
    /// Time spent inside `QueryService` calls, drain included.
    engine_time: Duration,
    samples: Vec<Sample>,
    submitted: f64,
    completed: f64,
    shed: f64,
    hits: f64,
    misses: f64,
    invalidations: f64,
    queue_depth_mean: f64,
    steals: f64,
    partial_share: f64,
    busiest_share: f64,
    memo_hit_share: f64,
    replan_hit_share: f64,
    revisions: f64,
    /// The calendars of the shard that booked the most work, at the end.
    live: FacilityQueues,
    end: SimTime,
}

/// Part 2: the stream in process, one span per `QueryService` call.
fn in_process(
    world: &World,
    requests: &[QueryRequest],
    spans: &mut Spans,
) -> Result<InProcess, String> {
    let root = spans.open("part2.in_process", None);
    let sites = world.catalog.site_count();
    let n = requests.len();
    let out = world.with_cluster(|cluster| -> Result<InProcess, String> {
        let mut per_query_us = Vec::with_capacity(n);
        let mut engine_time = Duration::ZERO;
        let mut samples = Vec::with_capacity(SAMPLE_POINTS);
        for (i, request) in requests.iter().enumerate() {
            let request = request.clone();
            let service: &mut dyn QueryService = cluster;
            let (report, took) =
                spans.time("QueryService::submit", root, || service.submit(request));
            report.map_err(|e| e.to_string())?;
            engine_time += took;
            per_query_us.push(took.as_secs_f64() * 1e6);
            if (i + 1) * SAMPLE_POINTS / n > i * SAMPLE_POINTS / n {
                samples.push(sample(cluster, sites, i + 1));
            }
        }
        let service: &mut dyn QueryService = cluster;
        let (report, took) = spans.time("QueryService::drain", root, || service.drain());
        report.map_err(|e| e.to_string())?;
        engine_time += took;

        let snapshot = cluster.snapshot();
        let sum = |f: &dyn Fn(&ivdss_serve::metrics::MetricsSnapshot) -> f64| -> f64 {
            snapshot.shards.iter().map(f).sum()
        };
        let submitted = snapshot.queries_submitted as f64;
        let busiest = snapshot
            .shards
            .iter()
            .map(|s| s.queries_submitted as f64)
            .fold(0.0, f64::max);
        let memo = cluster.shared_memo().stats();
        let (replan_hits, replan_misses) = cluster
            .engines()
            .iter()
            .map(|e| e.replan_cache().stats())
            .fold((0.0, 0.0), |(h, m), s| {
                (h + s.hits as f64, m + s.misses as f64)
            });
        let busiest_engine = cluster
            .engines()
            .iter()
            .max_by_key(|e| e.facilities().local().jobs_booked())
            .expect("a cluster has at least one shard");
        Ok(InProcess {
            per_query_us,
            engine_time,
            samples,
            submitted,
            completed: sum(&|s| s.queries_completed as f64),
            shed: sum(&|s| s.queries_shed as f64) + snapshot.unroutable_shed as f64,
            hits: sum(&|s| s.plan_cache_hits as f64),
            misses: sum(&|s| s.plan_cache_misses as f64),
            invalidations: sum(&|s| s.plan_cache_invalidations as f64),
            queue_depth_mean: sum(&|s| s.queue_depth_mean) / snapshot.shards.len() as f64,
            steals: snapshot.steals as f64,
            partial_share: share(snapshot.routed_partial as f64, submitted),
            busiest_share: share(busiest, sum(&|s| s.queries_submitted as f64)),
            memo_hit_share: share(memo.hits as f64, (memo.hits + memo.misses) as f64),
            replan_hit_share: share(replan_hits, replan_hits + replan_misses),
            revisions: sum(&|s| (s.faults_syncs_slipped + s.faults_syncs_dropped) as f64),
            live: busiest_engine.facilities().clone(),
            end: cluster.now(),
        })
    });
    spans.close(root);
    out
}

/// Part 3's per-call costs, in µs.
struct Replays {
    decode_us: f64,
    encode_us: f64,
    route_us: f64,
    hit_us: f64,
    miss_us: f64,
    search_us: f64,
    offer_us: f64,
    evaluate_us: f64,
    record_us: f64,
}

/// Every `step`-th request, at most [`SAMPLED`] of them.
fn sampled(requests: &[QueryRequest]) -> impl Iterator<Item = &QueryRequest> {
    requests
        .iter()
        .step_by((requests.len() / SAMPLED).max(1))
        .take(SAMPLED)
}

/// Part 3: single layers replayed through their public functions.
fn replays(
    world: &World,
    requests: &[QueryRequest],
    frames: &Frames,
    responses: &[Response],
    ledger: &Ledger,
    inproc: &InProcess,
    spans: &mut Spans,
) -> Result<Replays, String> {
    let root = spans.open("part3.replays", None);
    let rates = world.config.serve.rates;
    let ctx = PlanContext {
        catalog: &world.catalog,
        timelines: &world.timelines,
        model: world.model.as_ref(),
        rates,
        queues: &NoQueues,
    };

    let bodies: Vec<&[u8]> = frames.wire.iter().map(|w| &w[4..]).collect();
    let decode_us = spans.per_call("Request::decode", root, bodies.len(), || {
        for body in &bodies {
            let _ = black_box(Request::decode(black_box(body)));
        }
    });
    let encode_us = spans.per_call("Response::encode", root, responses.len(), || {
        for response in responses {
            black_box(black_box(response).encode());
        }
    });

    let router = ShardRouter::new(world.assignment.clone());
    let up = BTreeSet::new();
    let route_us = spans.per_call("ShardRouter::route", root, requests.len(), || {
        for r in requests {
            black_box(router.route(&world.catalog, r.id(), r.query.tables(), &up));
        }
    });

    // The plan cache sees sync events exactly as the engine delivers
    // them: through a cursor, before each lookup.
    let mut cache = PlanCache::new(world.config.serve.cache_capacity);
    let mut cursor = SyncEventCursor::new(SimTime::ZERO);
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let cache_root = spans.open("PlanCache::plan replay", Some(root));
    for r in requests.iter().take(CACHE_REPLAY) {
        let events = cursor.advance_to(&world.timelines, r.submitted_at);
        cache.apply_sync_events(&events);
        let (outcome, took) = spans.time("PlanCache::plan", cache_root, || cache.plan(&ctx, r));
        let us = took.as_secs_f64() * 1e6;
        match outcome.map_err(|e| e.to_string())?.1 {
            CacheOutcome::Hit => hit_us.push(us),
            CacheOutcome::Miss => miss_us.push(us),
        }
    }
    spans.close(cache_root);

    let search = ScatterGatherSearch::new();
    let picks: Vec<&QueryRequest> = sampled(requests).collect();
    let mut search_err = None;
    let search_us = spans.per_call(
        "ScatterGatherSearch::search_from",
        root,
        picks.len(),
        || {
            for r in &picks {
                if let Err(e) = search.search_from(&ctx, r, r.submitted_at) {
                    search_err = Some(e.to_string());
                }
            }
        },
    );
    if let Some(e) = search_err {
        return Err(e);
    }

    // Admission at capacity: fill the queue, then time offers that each
    // have to pick a victim.
    let capacity = world.config.serve.queue_capacity;
    let mut queue = AdmissionQueue::new(capacity, AgingPolicy::DISABLED);
    for r in requests.iter().take(capacity) {
        queue.offer(&ctx, r.clone(), r.submitted_at);
    }
    let offers: Vec<QueryRequest> = requests
        .iter()
        .skip(capacity)
        .take(SAMPLED)
        .cloned()
        .collect();
    let offer_us = spans.per_call("AdmissionQueue::offer", root, offers.len(), || {
        for r in offers {
            let now = r.submitted_at;
            black_box(queue.offer(&ctx, r, now));
        }
    });

    // Live re-evaluation against the calendars the in-process run left:
    // the cost of the next dispatch after the whole stream.
    let end = inproc.end;
    let mut planned = Vec::with_capacity(SAMPLED);
    for r in sampled(requests) {
        let request = QueryRequest {
            submitted_at: end,
            ..r.clone()
        };
        let best = search
            .search_from(&ctx, &request, end)
            .map_err(|e| e.to_string())?
            .best;
        planned.push((request, best.execute_at.max(end), best.local_tables));
    }
    let live_ctx = PlanContext {
        catalog: &world.catalog,
        timelines: &world.timelines,
        model: world.model.as_ref(),
        rates,
        queues: &inproc.live,
    };
    let mut evaluate_err = None;
    let evaluate_us = spans.per_call("evaluate_plan", root, planned.len(), || {
        for (request, release, local) in &planned {
            if let Err(e) = evaluate_plan(&live_ctx, request, *release, local) {
                evaluate_err = Some(e.to_string());
            }
        }
    });
    if let Some(e) = evaluate_err {
        return Err(e);
    }

    let completions: Vec<(f64, f64, f64)> = ledger
        .answers()
        .filter_map(|a| match a {
            Some(Answer::Completed { iv, cl, sl, .. }) => Some((cl, sl, iv)),
            _ => None,
        })
        .collect();
    let mut metrics = ServeMetrics::new(SimTime::ZERO);
    let record_us = spans.per_call(
        "ServeMetrics::record_completion",
        root,
        completions.len(),
        || {
            for &(cl, sl, iv) in &completions {
                metrics.record_completion(SimDuration::new(cl), SimDuration::new(sl), iv);
            }
        },
    );
    black_box(&metrics);
    spans.close(root);

    Ok(Replays {
        decode_us,
        encode_us,
        route_us,
        hit_us: mean(&hit_us),
        miss_us: mean(&miss_us),
        search_us,
        offer_us,
        evaluate_us,
        record_us,
    })
}

/// Everything the traced run needs from the timed run.
pub struct SocketRun<'a> {
    /// The workload's world.
    pub world: &'a World,
    /// The stream as the server rebuilt it from the wire.
    pub requests: &'a [QueryRequest],
    /// The encoded frames.
    pub frames: &'a Frames,
    /// The closed-loop exchange.
    pub exchange: &'a Exchange,
    /// The decoded answers, in frame order.
    pub responses: &'a [Response],
    /// Per-query answers of the socket run.
    pub ledger: &'a Ledger,
    /// The server's counters.
    pub stats: ServerStats,
    /// Median wall time of the socket passes, in seconds.
    pub socket_wall: f64,
    /// Time the untraced in-process reference run spent in
    /// `QueryService` calls.
    pub reference_time: Duration,
}

/// Runs parts 2 and 3, writes the spans to `spans_path` and returns
/// every per-layer metric.
///
/// # Errors
///
/// Propagates plan errors and span-file errors.
pub fn traced(run: &SocketRun<'_>, spans_path: &std::path::Path) -> Result<Vec<Metric>, String> {
    let exchange = run.exchange;
    let base = exchange.sent.first().copied().unwrap_or_else(Instant::now);
    let mut spans = Spans::new(base);

    // Part 1: one span per frame, under a span for the whole loop.
    let last = exchange.received.last().copied().unwrap_or(base);
    let socket = spans.record("part1.socket_run", None, base, last);
    for (sent, received) in exchange.sent.iter().zip(&exchange.received) {
        spans.record("frame", Some(socket), *sent, *received);
    }

    let inproc = in_process(run.world, run.requests, &mut spans)?;
    let layers = replays(
        run.world,
        run.requests,
        run.frames,
        run.responses,
        run.ledger,
        &inproc,
        &mut spans,
    )?;
    spans
        .write(spans_path)
        .map_err(|e| format!("write spans to {}: {e}", spans_path.display()))?;

    let n = run.requests.len() as f64;
    let frames = run.frames.submit_frames() as f64;
    let answer_bytes: usize = exchange.bodies.iter().map(|b| b.len() + 4).sum();
    let mut per_query = inproc.per_query_us.clone();
    let tenth = (inproc.per_query_us.len() / 10).max(1);
    let first = mean(&inproc.per_query_us[..tenth]);
    let last_tenth = mean(&inproc.per_query_us[inproc.per_query_us.len() - tenth..]);
    let end_sample = inproc
        .samples
        .last()
        .ok_or("no calendar sample was taken")?;
    let engine_us = inproc.engine_time.as_secs_f64() * 1e6;
    let faulted = run.world.faults.is_some();

    // The layer calls the engine made, costed at the replayed per-call
    // means: routing and the backlog probe once per submission, one
    // cache lookup per dispatch, admission's victim search per shed,
    // live re-evaluation and metrics recording per completion, and with
    // faults two floor lookups per submission plus the nominal-bound
    // search per completion.
    let mut layer_us = n * (layers.route_us + end_sample.local_probe_us)
        + inproc.hits * layers.hit_us
        + inproc.misses * layers.miss_us
        + inproc.shed * layers.offer_us
        + inproc.completed * (layers.evaluate_us + layers.record_us);
    if faulted {
        layer_us += 2.0 * n * end_sample.site_floors_us + inproc.completed * layers.search_us;
    }

    println!("calendar and fault-floor samples (queries, local µs, remote µs, floors µs, jobs):");
    for s in &inproc.samples {
        println!(
            "  {:>7} {:>10.3} {:>10.3} {:>10.4} {:>9}",
            s.queries, s.local_probe_us, s.remote_probe_us, s.site_floors_us, s.jobs
        );
    }
    println!(
        "server frames in/out: {}/{}, in-process engine time {:.3} s over {} queries",
        run.stats.frames_in,
        run.stats.frames_out,
        inproc.engine_time.as_secs_f64(),
        inproc.submitted
    );
    if let Some(plan) = &run.world.faults {
        println!(
            "fault plan: {} revisions ({} slips, {} drops), {} outages",
            plan.revisions().len(),
            plan.slip_count(),
            plan.drop_count(),
            plan.outages().len()
        );
    }

    let socket_us = run.socket_wall * 1e6;
    let reference_us = run.reference_time.as_secs_f64() * 1e6;
    println!(
        "net share of socket time: {:.4} ({:.1} µs of {:.1} µs per frame)",
        share(socket_us - reference_us, socket_us),
        (socket_us - reference_us) / frames,
        socket_us / frames
    );
    Ok(vec![
        m("net.overhead_us", (socket_us - reference_us) / frames, "us"),
        m("net.decode_us", layers.decode_us, "us"),
        m("net.encode_us", layers.encode_us, "us"),
        m(
            "net.bytes_per_query",
            (run.frames.bytes() + answer_bytes) as f64 / n,
            "bytes",
        ),
        m("cluster.route_us", layers.route_us, "us"),
        m("cluster.steals", inproc.steals, "count"),
        m("cluster.partial_route_share", inproc.partial_share, "share"),
        m("cluster.busiest_shard_share", inproc.busiest_share, "share"),
        m(
            "engine.submit_us_p50",
            nearest_rank(&mut per_query, 0.50),
            "us",
        ),
        m(
            "engine.submit_us_p99",
            nearest_rank(&mut per_query, 0.99),
            "us",
        ),
        m("engine.growth", share(last_tenth, first), "ratio"),
        m("admission.offer_us", layers.offer_us, "us"),
        m("admission.shed_share", share(inproc.shed, n), "share"),
        m(
            "admission.queue_depth_mean",
            inproc.queue_depth_mean,
            "count",
        ),
        m(
            "plan_cache.hit_share",
            share(inproc.hits, inproc.hits + inproc.misses),
            "share",
        ),
        m("plan_cache.hit_us", layers.hit_us, "us"),
        m("plan_cache.miss_us", layers.miss_us, "us"),
        m("plan_cache.invalidations", inproc.invalidations, "count"),
        m("search.us", layers.search_us, "us"),
        m("memo.hit_share", inproc.memo_hit_share, "share"),
        m("replan.hit_share", inproc.replan_hit_share, "share"),
        m("calendar.local_probe_us", end_sample.local_probe_us, "us"),
        m("calendar.remote_probe_us", end_sample.remote_probe_us, "us"),
        m("calendar.jobs", end_sample.jobs as f64, "count"),
        m("dispatch.evaluate_us", layers.evaluate_us, "us"),
        m("faults.site_floors_us", end_sample.site_floors_us, "us"),
        m("faults.revisions_applied", inproc.revisions, "count"),
        m("metrics.record_us", layers.record_us, "us"),
        m(
            "trace.overhead_share",
            share(engine_us - reference_us, reference_us),
            "share",
        ),
        m("trace.layer_sum_share", share(layer_us, engine_us), "share"),
    ])
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
