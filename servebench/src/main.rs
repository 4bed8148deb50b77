//! Serving benchmark of the IVDSS TCP front door.
//!
//! Serves one workload's seeded, fixed query stream to a `NetServer`
//! over loopback TCP, checks every answer, and prints the end-to-end
//! metrics (or, with `--trace 1`, the per-layer metrics) as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload tpch-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The server runs the cluster in a child process (this executable
//! with `--serve`) on a simulated clock: the generator stamps every
//! query with its simulated arrival time, so the engine's decisions and
//! the delivered information value are identical on every run of a
//! seed, and only wall time varies. The load generator is one process
//! with one connection, a sender thread and a receiver thread, in a
//! closed loop with a fixed window of frames outstanding.
//!
//! A run is a fixed number of queries (`--seconds` times a per-workload
//! constant), never a time budget. See `BENCHMARK.json` for the
//! workloads, the metrics and what each layer should move.

mod check;
mod client;
mod report;
mod server;
mod trace;
mod workload;

use std::path::PathBuf;

use ivdss_core::plan::QueryRequest;
use ivdss_net::proto::{Request, Response, SubmitSpec};
use ivdss_simkernel::time::SimTime;

use crate::check::{Answer, Ledger};
use crate::client::Frames;
use crate::report::{median, nearest_rank, result_line, share, Metric};
use crate::server::ServerProcess;
use crate::workload::{Workload, World};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    serve: bool,
}

const USAGE: &str =
    "usage: servebench --workload <tpch-paper|dashboard-hot|tenants-overload> --seed <n> \
     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--serve" {
            serve = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let queries = args.workload.queries(args.seconds);
    let outcome = if args.serve {
        server::serve_child(args.workload, args.seed, queries)
    } else {
        run(&args, queries)
    };
    if let Err(e) = outcome {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// One socket pass: a fresh server, the closed loop, shutdown.
struct Pass {
    exchange: client::Exchange,
    responses: Vec<Response>,
    ledger: Ledger,
    server: server::ServerReport,
}

fn socket_pass(args: &Args, queries: usize, frames: &Frames) -> Result<Pass, String> {
    let process = ServerProcess::spawn(args.workload, args.seed, args.seconds)?;
    let mut stream = client::connect(&process.addr)?;
    let exchange = client::closed_loop(&stream, frames)?;
    match client::call(&mut stream, &Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(stream);
    let server = process.finish()?;

    let mut ledger = Ledger::new(queries);
    let mut responses = Vec::with_capacity(exchange.bodies.len());
    for (i, body) in exchange.bodies.iter().enumerate() {
        let carried = frames.queries.get(i).copied().unwrap_or(0);
        match Response::decode(body) {
            Ok(response) => {
                ledger.record_frame(&response, carried);
                responses.push(response);
            }
            Err(_) => ledger.errored += carried.max(1) as u64,
        }
    }
    Ok(Pass {
        exchange,
        responses,
        ledger,
        server,
    })
}

/// Median over passes of one per-pass figure.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let mut values: Vec<f64> = passes.iter().map(f).collect();
    median(&mut values)
}

/// One benchmark run: the timed socket passes, the output check and,
/// with `--trace 1`, the traced run.
fn run(args: &Args, queries: usize) -> Result<(), String> {
    let workload = args.workload;
    // Inputs are generated and encoded before the clock starts.
    let offers = workload::offered(workload, args.seed, queries);
    if offers.len() != queries {
        return Err(format!("stream ran dry after {} queries", offers.len()));
    }
    let frames = Frames::encode(&offers, workload.batch());
    // The in-process runs serve the requests exactly as the server
    // rebuilds them from the wire.
    let requests: Vec<QueryRequest> = offers
        .iter()
        .map(|o| SubmitSpec::from_request(&o.request).to_request(SimTime::ZERO))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("generated an invalid request: {e}"))?;

    // Every pass serves the whole stream to a fresh server process; the
    // timing metrics are medians over passes.
    let passes = (0..workload.passes())
        .map(|_| socket_pass(args, queries, &frames))
        .collect::<Result<Vec<Pass>, String>>()?;

    // Check every pass against one in-process run of the same stream.
    let world = World::build(workload, args.seed, queries);
    let (reference, reference_time) = check::reference(&world, requests.clone())?;
    // Hello and Shutdown travel outside the timed loop.
    let frames_expected = frames.wire.len() as u64 + 2;
    let mut failed = (reference.unanswered() + reference.stray) * passes.len() as u64;
    for pass in &passes {
        let stats = pass.server.stats;
        failed += pass.ledger.mismatches(&reference)
            + pass.ledger.stray
            + pass.ledger.errored
            + stats.frames_in.abs_diff(frames_expected)
            + stats.frames_out.abs_diff(frames_expected);
    }
    let correct = failed == 0;

    // End-to-end metrics: timings are medians over passes; the IV and
    // SLA figures are exact, and every pass must agree with the
    // in-process run on them.
    let ledger = &passes[0].ledger;
    let delivered: f64 = ledger.answers().map(|a| a.map_or(0.0, Answer::iv)).sum();
    let (mut tracked, mut met) = (0u64, 0u64);
    for (i, offer) in offers.iter().enumerate() {
        if let Some(deadline) = offer.deadline {
            tracked += 1;
            if let Some(Answer::Completed { finish, .. }) = ledger.get(i) {
                met += u64::from(finish <= deadline.value());
            }
        }
    }
    let mut setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.server.setup_secs.iter().copied())
        .collect();
    // Passes replay identical work, so each frame's round trip is taken
    // as its median over passes: a stall that hits one pass does not
    // land in the percentiles.
    let mut rtt_us: Vec<f64> = (0..frames.submit_frames())
        .map(|i| {
            let mut per_pass: Vec<f64> = passes
                .iter()
                .map(|p| p.exchange.rtt(i).as_secs_f64() * 1e6)
                .collect();
            median(&mut per_pass)
        })
        .collect();
    let wall = median_of(&passes, |p| p.exchange.wall().as_secs_f64());
    let end_to_end = vec![
        Metric {
            name: "qps",
            value: queries as f64 / wall,
            unit: "1/s",
        },
        Metric {
            name: "rtt_p50_us",
            value: nearest_rank(&mut rtt_us, 0.50),
            unit: "us",
        },
        Metric {
            name: "rtt_p99_us",
            value: nearest_rank(&mut rtt_us, 0.99),
            unit: "us",
        },
        Metric {
            name: "iv_per_query",
            value: delivered / queries as f64,
            unit: "iv",
        },
        Metric {
            name: "sla_met_share",
            // Without SLA-tracked queries every deadline is met.
            value: if tracked == 0 {
                1.0
            } else {
                share(met as f64, tracked as f64)
            },
            unit: "share",
        },
        Metric {
            name: "setup_s",
            value: median(&mut setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: median_of(&passes, |p| p.server.peak_rss_kb as f64 / 1024.0),
            unit: "MiB",
        },
    ];

    println!(
        "workload {} seed {} queries {} frames {} batch {} window {} passes {}",
        workload.name(),
        args.seed,
        queries,
        frames.wire.len(),
        workload.batch(),
        client::WINDOW,
        passes.len()
    );
    println!(
        "digest in-process {:016x}, passes {:?}; failed {failed}; SLA met {met}/{tracked}",
        reference.digest(),
        passes
            .iter()
            .map(|p| format!("{:016x}", p.ledger.digest()))
            .collect::<Vec<_>>(),
    );
    println!(
        "pass walls {:?} s, in-process service time {:.3} s",
        passes
            .iter()
            .map(|p| (p.exchange.wall().as_secs_f64() * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        reference_time.as_secs_f64()
    );
    for metric in &end_to_end {
        println!(
            "  {:<22} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }

    let metrics = if args.trace {
        let last = passes.last().expect("a run makes at least one pass");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
        let layers = trace::traced(
            &trace::SocketRun {
                world: &world,
                requests: &requests,
                frames: &frames,
                exchange: &last.exchange,
                responses: &last.responses,
                ledger: &last.ledger,
                stats: last.server.stats,
                socket_wall: wall,
                reference_time,
            },
            &path,
        )?;
        println!("spans written to {}", path.display());
        for metric in &layers {
            println!(
                "  {:<30} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
        layers
    } else {
        end_to_end
    };
    let attempted = (queries * passes.len()) as u64;
    println!("{}", result_line(correct, attempted, failed, &metrics)?);
    Ok(())
}
