//! Loopback end-to-end suite: the network front door must be a
//! transparent transport.
//!
//! The anchor test runs the same seeded workload twice against the same
//! seeded 2-shard cluster scenario — once through direct
//! [`QueryService`] calls, once through real sockets on `127.0.0.1:0` —
//! and asserts the *entire* report stream (routing, sheds, completions,
//! every float bit-for-bit), the metrics exposition and the plan audits
//! are identical. Floats travel the wire as IEEE-754 bit patterns, so
//! this is exact equality, not tolerance comparison.

use std::net::TcpStream;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::QueryId;
use ivdss_net::proto::{
    read_frame_blocking, write_frame, ErrorCode, ReportMsg, Request, Response, SubmitSpec,
};
use ivdss_net::server::{NetConfig, NetServer};
use ivdss_net::service::QueryService;
use ivdss_net::{NetClient, NetError};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::ServeConfig;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEED: u64 = 0xE2E;
const QUERIES: usize = 40;
const SHARDS: usize = 2;

fn scenario_catalog() -> Catalog {
    synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 4,
        mean_sync_period: 5.0,
        seed: SeedFactory::new(SEED).seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("loopback catalog configuration is valid")
}

fn arrivals() -> Vec<QueryRequest> {
    let seeds = SeedFactory::new(SEED);
    let templates = random_queries(&RandomQueryConfig {
        queries: 6,
        tables: 8,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    ArrivalStream::new(templates, 2.0, seeds.seed_for("arrivals")).take_requests(QUERIES)
}

/// Builds the cluster scenario and hands it to `f`. Each call
/// constructs an identical, independently seeded instance — the
/// determinism the differential relies on.
fn with_cluster<T>(f: impl FnOnce(&mut Cluster<'_, DesClock>) -> T) -> T {
    let catalog = scenario_catalog();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let assignment = ShardAssignment::partition(&catalog, SHARDS, ShardStrategy::Balanced, SEED);
    let router = ShardRouter::new(assignment);
    let shard_timelines = ShardTimelines::build(&timelines, &router);
    let model = StylizedCostModel::paper_fig4();
    let config = ClusterConfig {
        serve: ServeConfig::new(DiscountRates::new(0.01, 0.05)),
        steal: true,
    };
    let mut cluster = Cluster::new(
        &catalog,
        &shard_timelines,
        &model,
        router,
        config,
        DesClock::new(),
    );
    f(&mut cluster)
}

/// The in-process reference: the same [`QueryService`] calls the server
/// would make, no sockets involved.
fn run_in_process(requests: &[QueryRequest]) -> (Vec<ReportMsg>, String, Vec<Option<String>>) {
    with_cluster(|cluster| {
        let service: &mut dyn QueryService = cluster;
        let mut reports = Vec::new();
        for request in requests {
            reports.push(service.submit(request.clone()).expect("submit plans"));
        }
        reports.push(service.drain().expect("drain plans"));
        let exposition = service.exposition();
        let audits = (0..QUERIES as u64)
            .map(|q| service.audit(QueryId::new(q)))
            .collect();
        (reports, exposition, audits)
    })
}

/// The same workload through real sockets.
fn run_over_loopback(requests: &[QueryRequest]) -> (Vec<ReportMsg>, String, Vec<Option<String>>) {
    with_cluster(|cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            let mut client = NetClient::connect(addr).expect("client connects");
            let mut reports = Vec::new();
            for request in requests {
                let spec = SubmitSpec::from_request(request);
                reports.push(client.submit(spec).expect("submit over socket"));
            }
            reports.push(client.drain().expect("drain over socket"));
            let exposition = client.metrics().expect("metrics over socket");
            let audits = (0..QUERIES as u64)
                .map(|q| client.audit(q).expect("audit over socket"))
                .collect();
            client.shutdown().expect("shutdown handshake");
            let stats = server_thread.join().expect("server thread joins");
            assert_eq!(stats.decode_errors, 0, "no malformed frames in this run");
            assert!(stats.frames_in > 0 && stats.frames_out > 0);
            (reports, exposition, audits)
        })
    })
}

/// The tentpole differential: sockets in the middle change nothing.
#[test]
fn loopback_run_is_bit_identical_to_in_process_run() {
    let requests = arrivals();
    let (direct_reports, direct_text, direct_audits) = run_in_process(&requests);
    let (net_reports, net_text, net_audits) = run_over_loopback(&requests);

    assert_eq!(direct_reports.len(), net_reports.len());
    for (i, (direct, net)) in direct_reports.iter().zip(&net_reports).enumerate() {
        assert_eq!(direct, net, "report {i} diverged across the socket");
    }
    let completions: usize = net_reports.iter().map(|r| r.completions.len()).sum();
    let shed: usize = net_reports.iter().map(|r| r.shed.len()).sum();
    assert_eq!(
        completions + shed,
        QUERIES,
        "every submission is either delivered or shed"
    );
    assert!(completions > 0, "the scenario must actually deliver work");

    assert_eq!(direct_text, net_text, "metrics exposition diverged");
    assert_eq!(direct_audits, net_audits, "plan audits diverged");
    assert!(
        net_audits.iter().any(Option::is_some),
        "the scenario must retain at least one audit"
    );
}

/// Protocol-level behavior over a real socket: version checks, ping,
/// and malformed-frame handling (an `Error { Malformed }` reply, then
/// the server closes the connection — framing is unrecoverable).
#[test]
fn malformed_frames_get_an_error_then_disconnect() {
    with_cluster(|cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            // Raw socket: handshake manually, then send garbage.
            let mut stream = TcpStream::connect(addr).expect("raw connect");
            write_frame(&mut stream, &Request::Hello { version: 1 }.encode()).expect("hello");
            let body = read_frame_blocking(&mut stream)
                .expect("welcome frame")
                .expect("not EOF");
            assert!(matches!(
                Response::decode(&body),
                Ok(Response::Welcome { .. })
            ));

            write_frame(&mut stream, &[0xFF, 0xEE, 0xDD]).expect("garbage frame");
            let body = read_frame_blocking(&mut stream)
                .expect("error frame")
                .expect("not EOF");
            match Response::decode(&body).expect("well-formed error response") {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
                other => panic!("expected Error, got {other:?}"),
            }
            // The server hangs up after a framing error.
            assert!(
                read_frame_blocking(&mut stream)
                    .expect("clean close")
                    .is_none(),
                "connection should be closed after a malformed frame"
            );

            // A fresh, well-behaved connection still works.
            let mut client = NetClient::connect(addr).expect("client connects");
            client.ping(7).expect("ping round-trips");

            switch.trip();
            let stats = server_thread.join().expect("server thread joins");
            assert_eq!(stats.decode_errors, 1);
        });
    });
}

/// Non-finite times are refused before they reach the engine: an
/// infinite submission time or advance target would move the engine
/// clock to +∞, after which the sync cursor enumerates periodic
/// completions without end. The connection stays usable.
#[test]
fn non_finite_times_are_refused() {
    with_cluster(|cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            let mut client = NetClient::connect(addr).expect("client connects");
            let good = SubmitSpec::from_request(&arrivals()[0]);
            for t in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let spec = SubmitSpec {
                    submitted_at: Some(t),
                    ..good.clone()
                };
                let refused = |r: Result<ReportMsg, NetError>| {
                    matches!(
                        r,
                        Err(NetError::Remote {
                            code: ErrorCode::Malformed,
                            ..
                        })
                    )
                };
                assert!(refused(client.submit(spec.clone())), "submit at {t}");
                assert!(refused(client.submit_batch(vec![spec])), "batch at {t}");
                assert!(refused(client.advance_to(t)), "advance to {t}");
            }
            client
                .submit(good)
                .expect("a finite submission still plans");
            client.shutdown().expect("shutdown handshake");
            server_thread.join().expect("server thread joins");
        });
    });
}

/// A client announcing the wrong protocol version is refused.
#[test]
fn version_mismatch_is_refused() {
    with_cluster(|cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            let mut stream = TcpStream::connect(addr).expect("raw connect");
            write_frame(&mut stream, &Request::Hello { version: 999 }.encode()).expect("hello");
            let body = read_frame_blocking(&mut stream)
                .expect("reply frame")
                .expect("not EOF");
            assert!(matches!(
                Response::decode(&body),
                Ok(Response::Error { .. })
            ));

            switch.trip();
            let stats = server_thread.join().expect("server thread joins");
            assert!(stats.accepted >= 1);
        });
    });
}
