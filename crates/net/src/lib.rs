//! # ivdss-net — the network front door
//!
//! Everything below this crate runs identically under a simulated
//! [`DesClock`](ivdss_serve::clock::DesClock) or a real
//! [`WallClock`](ivdss_serve::clock::WallClock); this crate adds the
//! missing piece for live traffic — a TCP transport over the serving
//! engines:
//!
//! * [`proto`] — a length-delimited binary protocol for query
//!   submission (single and batched), result/plan-audit streaming and a
//!   metrics exposition endpoint. Floats travel as IEEE-754 bit
//!   patterns, so results round-trip bit-exactly; decoding is total and
//!   fuzzed (malformed frames error, never panic).
//! * [`service`] — the [`QueryService`] seam:
//!   the transport drives a [`ServeEngine`](ivdss_serve::engine::ServeEngine)
//!   or a sharded [`Cluster`](ivdss_cluster::Cluster) through exactly
//!   the same `submit`/`advance_to`/`drain` entry points the simulated
//!   suites use. The sim-clock path stays bit-identical — the golden
//!   traces pin it — because nothing here *touches* dispatch; only the
//!   clock implementation and the transport differ.
//! * [`server`] — a hand-rolled `std::net` server: nonblocking
//!   listener polled from the engine loop, a bounded pool of reader
//!   workers assembling frames under a short read timeout, every
//!   request executed on the single engine thread in channel order.
//! * [`client`] — a blocking request/response client.
//!
//! The serving benchmark (`servebench/`, its own cargo workspace)
//! drives this crate over loopback and writes `BENCH_serve_net.json`.
//! See `docs/SERVING_NET.md` for the frame layout and the wall-clock
//! time-unit semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod service;

pub use client::{NetClient, NetError};
pub use proto::{
    CompletionMsg, ErrorCode, ReportMsg, Request, Response, RouteMsg, ShedMsg, SubmitSpec,
    WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{NetConfig, NetServer, ServerStats, ShutdownSwitch};
pub use service::QueryService;
