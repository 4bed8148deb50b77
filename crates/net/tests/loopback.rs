//! Loopback end-to-end suite: the network front door must be a
//! transparent transport.
//!
//! The anchor test runs the same seeded workload twice against the same
//! seeded 2-shard cluster scenario — once through direct
//! [`QueryService`] calls, once through real sockets on `127.0.0.1:0` —
//! and asserts the *entire* report stream (routing, sheds, completions,
//! every float bit-for-bit), the metrics exposition and the plan audits
//! are identical. Floats travel the wire as IEEE-754 bit patterns, so
//! this is exact equality, not tolerance comparison. A pipelined
//! variant writes every frame before reading any answer, so reads carry
//! many frames and each read's answers go out in one write.

use std::io::{ErrorKind, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::plan::{PlanError, QueryRequest};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::QueryId;
use ivdss_net::proto::{
    read_frame_blocking, write_frame, ErrorCode, ReportMsg, Request, Response, SubmitSpec,
    MAX_FRAME_LEN,
};
use ivdss_net::server::{NetConfig, NetServer, MAX_CONNECTIONS, WRITE_TIMEOUT};
use ivdss_net::service::QueryService;
use ivdss_net::{NetClient, NetError};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::{Clock, DesClock, WallClock};
use ivdss_serve::engine::ServeConfig;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;
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

/// Builds the cluster scenario on `clock` and hands it to `f`. Each
/// call constructs an identical, independently seeded instance — the
/// determinism the differential relies on.
fn with_cluster<C: Clock + Clone, T>(clock: C, f: impl FnOnce(&mut Cluster<'_, C>) -> T) -> T {
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
    let mut cluster = Cluster::new(&catalog, &shard_timelines, &model, router, config, clock);
    f(&mut cluster)
}

/// The in-process reference: the same [`QueryService`] calls the server
/// would make, no sockets involved.
fn run_in_process(requests: &[QueryRequest]) -> (Vec<ReportMsg>, String, Vec<Option<String>>) {
    with_cluster(DesClock::new(), |cluster| {
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
    with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
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

/// Writes `requests` as one burst of frames — nothing is read before
/// the last frame is out.
fn write_all_frames(stream: &mut TcpStream, requests: &[Request]) {
    let mut wire = Vec::new();
    for request in requests {
        write_frame(&mut wire, &request.encode()).expect("in-memory write");
    }
    stream.write_all(&wire).expect("request burst goes out");
}

/// Reads and decodes the next answer frame; `None` at EOF.
fn next_answer(stream: &mut TcpStream) -> Option<Response> {
    read_frame_blocking(stream)
        .expect("answer frame")
        .map(|body| Response::decode(&body).expect("well-formed answer"))
}

/// The loopback workload pipelined on a raw socket: the 40 submits, the
/// drain, the metrics, the 40 audits and the shutdown go out before the
/// first answer is read.
#[test]
fn pipelined_run_is_bit_identical_to_in_process_run() {
    let requests = arrivals();
    let (direct_reports, direct_text, direct_audits) = run_in_process(&requests);

    let mut burst: Vec<Request> = requests
        .iter()
        .map(|r| Request::Submit(SubmitSpec::from_request(r)))
        .collect();
    burst.push(Request::Drain);
    burst.push(Request::Metrics);
    burst.extend((0..QUERIES as u64).map(|query| Request::Audit { query }));
    burst.push(Request::Shutdown);
    let (answers, stats) = with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));
            let mut stream = TcpStream::connect(addr).expect("raw connect");
            write_all_frames(&mut stream, &burst);
            let answers: Vec<Response> = std::iter::from_fn(|| next_answer(&mut stream)).collect();
            (answers, server_thread.join().expect("server thread joins"))
        })
    });

    assert_eq!(answers.len(), burst.len(), "one answer per frame, then EOF");
    let mut answers = answers.into_iter();
    for (i, direct) in direct_reports.iter().enumerate() {
        match answers.next() {
            Some(Response::Report(net)) => assert_eq!(&net, direct, "report {i} diverged"),
            other => panic!("answer {i}: expected a report, got {other:?}"),
        }
    }
    match answers.next() {
        Some(Response::Metrics { text }) => assert_eq!(text, direct_text),
        other => panic!("expected the metrics, got {other:?}"),
    }
    for (query, direct) in direct_audits.iter().enumerate() {
        match answers.next() {
            Some(Response::Audit { found, text }) => {
                assert_eq!(found.then_some(text), *direct, "audit {query} diverged");
            }
            other => panic!("audit {query}: got {other:?}"),
        }
    }
    assert_eq!(answers.next(), Some(Response::Bye));
    assert_eq!(stats.frames_in, burst.len() as u64);
    assert_eq!(stats.frames_out, stats.frames_in);
    assert_eq!((stats.decode_errors, stats.evicted), (0, 0));
}

/// Valid frames and a garbage frame in one write: the valid frames are
/// answered in order, then the garbage gets `Error { Malformed }`, then
/// the connection closes.
#[test]
fn malformed_frame_is_answered_after_the_valid_frames_before_it() {
    const VALID: usize = 5;
    let specs: Vec<SubmitSpec> = arrivals()[..VALID]
        .iter()
        .map(SubmitSpec::from_request)
        .collect();
    let (answers, stats) = with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));
            let mut stream = TcpStream::connect(addr).expect("raw connect");
            let mut wire = Vec::new();
            for spec in &specs {
                write_frame(&mut wire, &Request::Submit(spec.clone()).encode())
                    .expect("in-memory write");
            }
            write_frame(&mut wire, &[0xFF, 0xEE, 0xDD]).expect("in-memory write");
            stream.write_all(&wire).expect("one write");
            let answers: Vec<Response> = std::iter::from_fn(|| next_answer(&mut stream)).collect();
            switch.trip();
            (answers, server_thread.join().expect("server thread joins"))
        })
    });

    assert_eq!(answers.len(), VALID + 1, "{answers:?}");
    for (i, answer) in answers[..VALID].iter().enumerate() {
        assert!(
            matches!(answer, Response::Report(_)),
            "answer {i}: {answer:?}"
        );
    }
    assert!(matches!(
        answers[VALID],
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    assert_eq!(stats.frames_in, VALID as u64);
    assert_eq!(
        stats.frames_out, VALID as u64,
        "the error reply answers no request"
    );
    assert_eq!(stats.decode_errors, 1);
}

/// A client that half-closes its socket after its last frame still
/// reads every answer, then EOF.
#[test]
fn half_closed_client_gets_every_answer() {
    let mut burst: Vec<Request> = arrivals()[..10]
        .iter()
        .map(|r| Request::Submit(SubmitSpec::from_request(r)))
        .collect();
    burst.push(Request::Drain);
    let (answers, stats) = with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));
            let mut stream = TcpStream::connect(addr).expect("raw connect");
            write_all_frames(&mut stream, &burst);
            stream.shutdown(Shutdown::Write).expect("half-close");
            let answers: Vec<Response> = std::iter::from_fn(|| next_answer(&mut stream)).collect();
            switch.trip();
            (answers, server_thread.join().expect("server thread joins"))
        })
    });

    assert_eq!(answers.len(), burst.len());
    assert!(answers.iter().all(|a| matches!(a, Response::Report(_))));
    let answered: usize = answers
        .iter()
        .map(|a| match a {
            Response::Report(r) => r.completions.len() + r.shed.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(answered, 10, "every submission is delivered or shed");
    assert_eq!(stats.frames_out, burst.len() as u64);
}

/// A service whose metrics exposition is `text`, or a panic for `None`;
/// every other call answers an empty report.
struct FixedMetrics(Option<String>);

impl QueryService for FixedMetrics {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn submit(&mut self, _: QueryRequest) -> Result<ReportMsg, PlanError> {
        Ok(ReportMsg::default())
    }
    fn advance_to(&mut self, _: SimTime) -> Result<ReportMsg, PlanError> {
        Ok(ReportMsg::default())
    }
    fn drain(&mut self) -> Result<ReportMsg, PlanError> {
        Ok(ReportMsg::default())
    }
    fn exposition(&self) -> String {
        self.0
            .clone()
            .expect("this engine panics on a metrics request")
    }
    fn audit(&self, _: QueryId) -> Option<String> {
        None
    }
}

/// An answer too large to frame closes its connection unsent; the
/// answer before it in the same batch is still delivered.
#[test]
fn unframeable_answer_closes_its_connection_after_earlier_answers() {
    let mut service = FixedMetrics(Some("m".repeat(MAX_FRAME_LEN)));
    let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let switch = server.shutdown_switch();
    let (first, rest, stats) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&mut service).expect("server runs"));
        let mut stream = TcpStream::connect(addr).expect("raw connect");
        let burst = [
            Request::Ping { token: 1 },
            Request::Metrics,
            Request::Ping { token: 2 },
        ];
        write_all_frames(&mut stream, &burst);
        let first = next_answer(&mut stream);
        // Nothing follows: EOF, or a reset if the last ping was unread.
        let rest = read_frame_blocking(&mut stream).ok().flatten();
        switch.trip();
        (
            first,
            rest,
            server_thread.join().expect("server thread joins"),
        )
    });
    assert_eq!(first, Some(Response::Pong { token: 1 }));
    assert_eq!(rest, None);
    assert_eq!(stats.frames_out, 1);
    assert_eq!(stats.evicted, 0);
    assert_eq!(
        stats.frames_in, 2,
        "the ping behind the closing answer never runs"
    );
}

/// A client that stops reading holds up only its own connection:
/// another client is answered at once, and the stalled connection is
/// evicted once its write misses the deadline.
#[test]
fn client_that_stops_reading_is_evicted() {
    // 160 answers of 512 KiB: far more than loopback socket buffers hold.
    const METRICS_FRAMES: usize = 160;
    let mut service = FixedMetrics(Some("m".repeat(MAX_FRAME_LEN / 2)));
    let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let (pinged, stats) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&mut service).expect("server runs"));

        // The handshake is the last answer this client ever reads.
        let mut stalled = TcpStream::connect(addr).expect("raw connect");
        write_all_frames(&mut stalled, &[Request::Hello { version: 1 }]);
        assert!(matches!(
            next_answer(&mut stalled),
            Some(Response::Welcome { .. })
        ));
        write_all_frames(&mut stalled, &vec![Request::Metrics; METRICS_FRAMES]);
        let stalled_at = Instant::now();
        // Time for the stalled answers to fill the socket buffers, so the
        // ping below runs while their write is blocked.
        std::thread::sleep(Duration::from_millis(200));

        let started = Instant::now();
        let mut client = NetClient::connect(addr).expect("second client connects");
        client.ping(7).expect("second client is served");
        let pinged = started.elapsed();
        // Shut down only past the stalled write's deadline: a write that
        // shutdown cuts short is not an eviction.
        let evicted_by = stalled_at + WRITE_TIMEOUT + Duration::from_secs(2);
        std::thread::sleep(evicted_by.saturating_duration_since(Instant::now()));
        client.shutdown().expect("shutdown handshake");
        let stats = server_thread.join().expect("server thread joins");
        drop(stalled);
        (pinged, stats)
    });
    assert!(pinged < Duration::from_secs(1), "ping took {pinged:?}");
    // One deadline for the whole stalled write: a timeout per `write`
    // call would let the partial writes into the filling socket buffers
    // each take a full timeout, and shutdown would find it still blocked.
    assert_eq!(stats.evicted, 1, "{stats:?}");
    // Only the answer whose write timed out is lost: the requests queued
    // behind it never run once the connection is gone.
    assert_eq!(stats.frames_in, stats.frames_out + 1, "{stats:?}");
}

/// A client that writes without ever reading is held back by TCP: its
/// connection stops reading while its answers cannot be written, so the
/// server takes in no more than the socket buffers hold.
#[test]
fn client_that_never_reads_is_held_back_by_tcp() {
    const FLOOD: Duration = Duration::from_secs(3);
    let mut wire = Vec::new();
    for token in 0..1024 {
        write_frame(&mut wire, &Request::Ping { token }.encode()).expect("in-memory write");
    }
    let mut service = FixedMetrics(Some(String::new()));
    let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let switch = server.shutdown_switch();
    let (flooded, stats) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&mut service).expect("server runs"));
        let mut stream = TcpStream::connect(addr).expect("raw connect");
        stream
            .set_write_timeout(Some(Duration::from_millis(50)))
            .expect("write timeout");
        let (mut accepted, mut at) = (0usize, 0usize);
        let started = Instant::now();
        let flooded = loop {
            if started.elapsed() >= FLOOD {
                break Ok(accepted);
            }
            // From where the last write stopped, so frames stay whole.
            match stream.write(&wire[at..]) {
                Ok(n) => (accepted, at) = (accepted + n, (at + n) % wire.len()),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => break Err(e.kind()),
            }
        };
        switch.trip();
        (flooded, server_thread.join().expect("server thread joins"))
    });
    let accepted = flooded.expect("the flood's writes only time out");
    assert!(accepted < 64 << 20, "{accepted} bytes accepted");
    // The blocked write of the answers ends at shutdown, not by deadline.
    assert_eq!(stats.evicted, 0, "{stats:?}");
}

/// A panic inside the engine closes every connection within a poll
/// interval and reaches the caller of `serve`, instead of leaving
/// clients waiting on an engine that will never answer.
#[test]
fn engine_panic_closes_every_connection() {
    let mut service = FixedMetrics(None);
    let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    // Asserted after the scope, so a failed check cannot leave the scope
    // waiting on a server that still serves.
    let (pong, answers, waited, served) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&mut service));
        let mut bystander = TcpStream::connect(addr).expect("raw connect");
        write_all_frames(&mut bystander, &[Request::Ping { token: 1 }]);
        let pong = next_answer(&mut bystander);
        let mut stream = TcpStream::connect(addr).expect("raw connect");
        let started = Instant::now();
        write_all_frames(&mut stream, &[Request::Metrics]);
        // The read timeout only keeps a hung server from hanging the test.
        let answers: Vec<_> = [stream, bystander]
            .into_iter()
            .map(|mut s| {
                s.set_read_timeout(Some(Duration::from_secs(3)))
                    .expect("read timeout");
                read_frame_blocking(&mut s).map_err(|e| e.kind())
            })
            .collect();
        // The clients are gone here, so a server waiting on them returns.
        (pong, answers, started.elapsed(), server_thread.join())
    });
    assert_eq!(pong, Some(Response::Pong { token: 1 }));
    assert_eq!(answers, [Ok(None), Ok(None)], "EOF on both connections");
    assert!(waited < Duration::from_secs(2), "EOF took {waited:?}");
    assert!(served.is_err(), "the panic reaches the caller of serve");
}

/// Protocol-level behavior over a real socket: version checks, ping,
/// and malformed-frame handling (an `Error { Malformed }` reply, then
/// the server closes the connection — framing is unrecoverable).
#[test]
fn malformed_frames_get_an_error_then_disconnect() {
    with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
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
    with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
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
    with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
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

/// A batch holding one invalid spec is refused whole: no spec of it is
/// admitted, so a client may resend the valid ones alone.
#[test]
fn invalid_spec_refuses_the_whole_batch() {
    let valid = SubmitSpec::from_request(&arrivals()[0]);
    let empty = SubmitSpec {
        id: valid.id + 1,
        tables: Vec::new(),
        ..valid.clone()
    };
    // Everything is asserted after the server has stopped, so a failed
    // check cannot leave the scope waiting on the server thread.
    let (refused, text, resent) = with_cluster(DesClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            let mut client = NetClient::connect(addr).expect("client connects");
            let refused = client.submit_batch(vec![valid.clone(), empty]);
            let text = client.metrics();
            let resent = [client.submit(valid.clone()), client.drain()];
            client.shutdown().expect("shutdown handshake");
            server_thread.join().expect("server thread joins");
            (refused, text, resent)
        })
    });

    assert!(
        matches!(
            refused,
            Err(NetError::Remote {
                code: ErrorCode::Malformed,
                ..
            })
        ),
        "{refused:?}"
    );
    let text = text.expect("metrics over socket");
    assert!(
        text.lines()
            .any(|l| l == "cluster_queries_submitted_total 0"),
        "a refused batch admits nothing:\n{text}"
    );
    let mut completed = 0;
    for report in resent {
        let report = report.expect("the valid spec plans alone");
        completed += report
            .completions
            .iter()
            .filter(|c| c.query == valid.id)
            .count();
    }
    assert_eq!(completed, 1, "the resent spec completes once");
}

/// A wall-clock server stamps unstamped specs itself and keeps two
/// concurrent connections apart: every query is answered exactly once.
#[test]
fn wall_clock_server_answers_concurrent_unstamped_batches() {
    const CLIENTS: usize = 2;
    const BATCH: usize = 5;
    let specs: Vec<SubmitSpec> = arrivals()
        .iter()
        .map(|r| SubmitSpec {
            submitted_at: None,
            ..SubmitSpec::from_request(r)
        })
        .collect();
    let (clients, stats) = with_cluster(WallClock::new(), |cluster| {
        let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(cluster).expect("server runs"));

            // Each client owns a disjoint slice of the ids.
            let handles: Vec<_> = specs
                .chunks(QUERIES / CLIENTS)
                .map(|own| {
                    scope.spawn(move || -> Result<Vec<ReportMsg>, NetError> {
                        let mut client = NetClient::connect(addr)?;
                        let mut reports = own
                            .chunks(BATCH)
                            .map(|batch| client.submit_batch(batch.to_vec()))
                            .collect::<Result<Vec<_>, _>>()?;
                        reports.push(client.drain()?);
                        Ok(reports)
                    })
                })
                .collect();
            let clients: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            switch.trip();
            let stats = server_thread.join().expect("server thread joins");
            (clients, stats)
        })
    });

    let mut answers = [0usize; QUERIES];
    for client in clients {
        let reports = client
            .expect("client thread joins")
            .expect("client session");
        for report in &reports {
            let completed = report.completions.iter().map(|c| c.query);
            for query in completed.chain(report.shed.iter().map(|s| s.query)) {
                answers[query as usize] += 1;
            }
        }
    }
    assert!(
        answers.iter().all(|&n| n == 1),
        "every query is completed or shed exactly once: {answers:?}"
    );
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.frames_in, stats.frames_out);
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.plan_errors, 0);
}

/// A connection beyond [`MAX_CONNECTIONS`] reads one `Error { Busy }`
/// frame, then EOF; once a held client closes, a new one is served.
#[test]
fn connections_beyond_the_limit_are_refused_busy() {
    let mut service = FixedMetrics(Some(String::new()));
    let server = NetServer::bind("127.0.0.1:0", NetConfig).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let switch = server.shutdown_switch();
    // Asserted after the scope, so a failed check cannot leave the scope
    // waiting on a server that still serves.
    let (refusal, after, reconnected, stats) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&mut service).expect("server runs"));
        let mut held: Vec<NetClient> = (0..MAX_CONNECTIONS)
            .map(|_| NetClient::connect(addr).expect("a client within the limit connects"))
            .collect();
        let mut extra = TcpStream::connect(addr).expect("raw connect");
        // The read timeout only keeps a hung server from hanging the test.
        extra
            .set_read_timeout(Some(Duration::from_secs(3)))
            .expect("read timeout");
        let mut read = || {
            read_frame_blocking(&mut extra)
                .map(|frame| frame.map(|body| Response::decode(&body)))
                .map_err(|e| e.kind())
        };
        let (refusal, after) = (read(), read());
        // The freed slot is taken once the server has seen the close.
        drop(held.pop());
        let started = Instant::now();
        let reconnected = loop {
            let served = NetClient::connect(addr).and_then(|mut client| client.ping(1));
            if served.is_ok() || started.elapsed() >= Duration::from_secs(2) {
                break served;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        switch.trip();
        let stats = server_thread.join().expect("server thread joins");
        (refusal, after, reconnected, stats)
    });
    assert!(
        matches!(
            refusal,
            Ok(Some(Ok(Response::Error {
                code: ErrorCode::Busy,
                ..
            })))
        ),
        "{refusal:?}"
    );
    assert_eq!(after, Ok(None), "EOF after the refusal");
    assert!(reconnected.is_ok(), "{reconnected:?}");
    assert_eq!(stats.accepted, MAX_CONNECTIONS as u64 + 1, "{stats:?}");
    assert!(stats.refused >= 1, "{stats:?}");
}
