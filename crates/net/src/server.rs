//! The TCP front door: a nonblocking listener and one thread per
//! connection.
//!
//! # Architecture
//!
//! The caller of [`NetServer::serve`] polls the nonblocking listener
//! every [`ACCEPT_POLL`], refuses connections beyond [`MAX_CONNECTIONS`]
//! with [`ErrorCode::Busy`] and gives each other connection a scoped
//! thread of its own. That thread runs the whole request cycle: one
//! blocking read, assembled by [`FrameReader`]; decode every frame the
//! read completed; lock the engine, execute the frames in order and
//! encode each answer into the connection's outbound buffer; unlock;
//! then write the buffer at once. It reads again only after writing, so
//! one read collects every frame that arrived meanwhile, and TCP flow
//! control bounds what a client can push. The lock is never held across
//! a write — a buffer that reaches 64 KiB mid-batch is written between
//! two holds — so a client that stops reading blocks only its own
//! thread. Requests from one connection execute in arrival order;
//! requests from different connections interleave in lock order.
//!
//! Malformed frames get an [`ErrorCode::Malformed`] reply, after the
//! answers to the frames before them, and the connection is closed
//! (framing cannot be resynchronized); plan errors get
//! [`ErrorCode::Plan`] and the connection lives on. A response too large
//! to frame closes its connection unsent. A write of a connection's
//! buffer that has not finished within [`WRITE_TIMEOUT`], or fails,
//! evicts the connection ([`ServerStats::evicted`]). Requests of a
//! closed or evicted connection that have not run never run. A
//! [`Request::Shutdown`] from any client — or an external trip of the
//! [`ShutdownSwitch`] — stops the accept loop once its
//! [`Response::Bye`] is written; every socket is then shut down, which
//! ends each blocked read with EOF, and every connection thread joined.
//! A panic in the engine trips the switch the same way and reaches the
//! caller of [`NetServer::serve`] once every thread is joined.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

use crate::proto::{
    write_frame, ErrorCode, FrameReader, ReadEvent, ReportMsg, Request, Response, SubmitSpec,
    PROTOCOL_VERSION,
};
use crate::service::QueryService;

/// Outbound bytes at which a connection's buffer is written before its
/// batch is done, so one batch's answers never pile up without bound.
const FLUSH_AT: usize = 64 * 1024;

/// Longest one write of a connection's buffer may take. A connection
/// whose write has not finished by then (a client that stopped reading,
/// or reads too slowly) is evicted.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection threads at most; further connections are refused with
/// [`ErrorCode::Busy`].
pub const MAX_CONNECTIONS: usize = 8;

/// The accept loop's wait between listener polls, and so the latency
/// with which it notices the [`ShutdownSwitch`].
pub const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// The argument of [`NetServer::bind`]. It has no setting: the front
/// door's limits are the constants [`MAX_CONNECTIONS`], [`ACCEPT_POLL`]
/// and [`WRITE_TIMEOUT`]. It stays for source compatibility, since the
/// serving benchmark (`servebench/`) calls
/// `NetServer::bind(addr, NetConfig::default())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetConfig;

/// Cooperative stop flag shared by the accept loop, the connection
/// threads and — via [`NetServer::shutdown_switch`] — any external
/// controller.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSwitch(Arc<AtomicBool>);

impl ShutdownSwitch {
    /// Creates an untripped switch.
    #[must_use]
    pub fn new() -> Self {
        ShutdownSwitch::default()
    }

    /// Trips the switch; the accept loop notices within [`ACCEPT_POLL`].
    pub fn trip(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the switch has been tripped.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Counters of one [`NetServer::serve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted, each on a thread of its own.
    pub accepted: u64,
    /// Connections refused because every connection thread was taken.
    pub refused: u64,
    /// Request frames executed.
    pub frames_in: u64,
    /// Response frames written to their socket.
    pub frames_out: u64,
    /// Connections dropped over malformed frames.
    pub decode_errors: u64,
    /// Requests answered with [`ErrorCode::Plan`].
    pub plan_errors: u64,
    /// Connections shut down because a write failed, shutdown aside, or
    /// did not finish within [`WRITE_TIMEOUT`].
    pub evicted: u64,
}

impl ServerStats {
    /// Adds the frame and error counters of one connection.
    fn add(&mut self, other: ServerStats) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.decode_errors += other.decode_errors;
        self.plan_errors += other.plan_errors;
        self.evicted += other.evicted;
    }
}

/// One connection's socket and the response frames encoded for it
/// since its last write.
struct Outbound {
    stream: TcpStream,
    /// Whole frames awaiting one write; reused for the connection's
    /// lifetime.
    buf: Vec<u8>,
    /// Answer frames in `buf`, counted into
    /// [`ServerStats::frames_out`] once written.
    frames: u64,
}

impl Outbound {
    /// Buffers `response`'s frame. Returns `false`, buffering nothing,
    /// when the frame is too large to send.
    fn push(&mut self, response: &Response) -> bool {
        let framed = response.encode_frame(&mut self.buf).is_ok();
        self.frames += u64::from(framed);
        framed
    }

    /// Writes the buffered frames, all within [`WRITE_TIMEOUT`]. Returns
    /// `false` when the write failed or missed the deadline: the
    /// connection must close. That counts as an eviction unless the
    /// switch is tripped, since shutdown closes every socket.
    fn flush(&mut self, stats: &mut ServerStats, shutdown: &ShutdownSwitch) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let written = write_in_time(&mut self.stream, &self.buf).is_ok();
        self.buf.clear();
        let frames = std::mem::take(&mut self.frames);
        if written {
            stats.frames_out += frames;
        } else if !shutdown.is_tripped() {
            stats.evicted += 1;
        }
        written
    }
}

/// Writes all of `bytes`, or fails once [`WRITE_TIMEOUT`] has passed
/// since the call. The socket's timeout, set at accept, bounds one
/// `write` call, and a call that moved some bytes returns only once it
/// runs out: after a short write, each further call gets the time left.
fn write_in_time(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut shortened = false;
    loop {
        match stream.write(bytes) {
            Ok(n) if n == bytes.len() => break,
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        shortened = true;
    }
    if shortened {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    Ok(())
}

/// The network front door. Bind once, then [`NetServer::serve`] an
/// engine on it; the call blocks until shutdown.
pub struct NetServer {
    listener: TcpListener,
    shutdown: ShutdownSwitch,
}

impl NetServer {
    /// Binds the listener (use port 0 for an ephemeral test port) and
    /// switches it to nonblocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates binding and socket-option errors.
    pub fn bind(addr: impl ToSocketAddrs, _config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            shutdown: ShutdownSwitch::new(),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`NetServer::serve`] from another thread.
    #[must_use]
    pub fn shutdown_switch(&self) -> ShutdownSwitch {
        self.shutdown.clone()
    }

    /// Runs the accept loop until shutdown. The calling thread accepts
    /// connections; each connection's thread executes its own requests
    /// against `service` under one lock, so requests run one at a time,
    /// in lock order.
    ///
    /// # Errors
    ///
    /// Propagates listener I/O errors. Per-connection errors are
    /// handled by dropping the connection, never by failing the server.
    ///
    /// # Panics
    ///
    /// Panics if `service` panicked, once every connection is closed.
    pub fn serve(&self, service: &mut dyn QueryService) -> std::io::Result<ServerStats> {
        let engine = Mutex::new(service);
        let mut stats = ServerStats::default();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(u64, ServerStats)>();
        // A handle on each live connection's socket, to close it at
        // shutdown, until its thread sends its id and counters.
        let mut live: HashMap<u64, TcpStream> = HashMap::new();
        let mut next_conn: u64 = 0;
        let served = std::thread::scope(|scope| {
            let served = loop {
                for (conn, conn_stats) in done_rx.try_iter() {
                    live.remove(&conn);
                    stats.add(conn_stats);
                }
                if self.shutdown.is_tripped() {
                    break Ok(());
                }
                match self.listener.accept() {
                    Ok((mut stream, _peer)) if live.len() >= MAX_CONNECTIONS => {
                        stats.refused += 1;
                        let body = Response::Error {
                            code: ErrorCode::Busy,
                            message: "connection pool exhausted".to_owned(),
                        }
                        .encode();
                        let _ = write_frame(&mut stream, &body);
                    }
                    Ok((stream, _peer)) => {
                        stream.set_nodelay(true).ok();
                        // Reads block until data, EOF or shutdown. Some
                        // kernels pass the listener's nonblocking flag on
                        // to accepted sockets, so it is cleared here.
                        let handle = stream
                            .set_nonblocking(false)
                            .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
                            .and_then(|()| stream.try_clone());
                        let Ok(handle) = handle else {
                            continue; // dropped: a socket that cannot be set up
                        };
                        stats.accepted += 1;
                        let conn = next_conn;
                        next_conn += 1;
                        live.insert(conn, handle);
                        let (done_tx, engine) = (done_tx.clone(), &engine);
                        scope.spawn(move || {
                            let _ = done_tx.send((conn, self.serve_conn(stream, engine)));
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Shut down every socket, which ends each blocked read with
            // EOF, then let the scope join the connection threads.
            for stream in live.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            served
        });
        for (_, conn_stats) in done_rx.try_iter() {
            stats.add(conn_stats);
        }
        served.map(|()| stats)
    }

    /// One connection's thread. Each turn reads once, decodes every frame
    /// the read completed, executes them in order under the engine lock and
    /// writes their answers after releasing it. Exits on EOF, I/O error,
    /// malformed frame, failed write or shutdown, and returns the
    /// connection's counters.
    fn serve_conn(&self, stream: TcpStream, engine: &Mutex<&mut dyn QueryService>) -> ServerStats {
        let shutdown = &self.shutdown;
        let _trip = TripOnPanic(shutdown);
        let mut stats = ServerStats::default();
        let mut out = Outbound {
            stream,
            buf: Vec::new(),
            frames: 0,
        };
        let mut frames = FrameReader::new();
        let mut requests = Vec::new();
        while !shutdown.is_tripped() {
            match frames.poll(&mut &out.stream) {
                Ok(ReadEvent::Data) => {}
                // Every read's answers are written before the next read, so
                // a half-closed client already has them all.
                Ok(ReadEvent::Eof) | Err(_) => break,
            }
            // `Some` ends the connection after this batch: with a Malformed
            // reply, or silently for an announced length over the bound, as
            // on an I/O error.
            let stop = loop {
                match frames.next_frame() {
                    Ok(None) => break None,
                    Ok(Some(body)) => match Request::decode(body) {
                        Ok(request) => requests.push(request),
                        Err(err) => break Some(Some(err)),
                    },
                    Err(_) => break Some(None),
                }
            };
            let mut batch = requests.drain(..);
            let mut open = true;
            let mut bye = false;
            while open && batch.len() > 0 {
                let Ok(mut service) = engine.lock() else {
                    // A request panicked inside the engine: run nothing more.
                    return stats;
                };
                let mut framed = true;
                for request in batch.by_ref() {
                    stats.frames_in += 1;
                    let response = self.execute(&mut **service, request, &mut stats);
                    bye |= matches!(response, Response::Bye);
                    framed = out.push(&response);
                    if !framed || out.buf.len() >= FLUSH_AT {
                        break;
                    }
                }
                drop(service);
                // The answers before an unframeable one still go out.
                open = out.flush(&mut stats, shutdown) && framed;
            }
            if bye {
                // Only once `Bye` is written: the accept loop closes every
                // socket as soon as it sees the switch.
                shutdown.trip();
            }
            if let Some(Some(err)) = &stop {
                stats.decode_errors += 1;
                // Behind the answers to the valid frames before it; not an
                // answer, so not counted.
                let reply = Response::Error {
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                };
                if open && reply.encode_frame(&mut out.buf).is_ok() {
                    out.flush(&mut stats, shutdown);
                }
            }
            if stop.is_some() || !open {
                break;
            }
        }
        let _ = out.stream.shutdown(Shutdown::Both);
        stats
    }

    /// Executes one decoded request against the engine.
    fn execute(
        &self,
        service: &mut dyn QueryService,
        request: Request,
        stats: &mut ServerStats,
    ) -> Response {
        match request {
            Request::Hello { version } => {
                if version == PROTOCOL_VERSION {
                    Response::Welcome {
                        version: PROTOCOL_VERSION,
                    }
                } else {
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: format!(
                            "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                        ),
                    }
                }
            }
            Request::Ping { token } => Response::Pong { token },
            Request::Submit(spec) => match spec.to_request(service.now()) {
                Err(err) => Response::Error {
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                },
                Ok(request) => match service.submit(request) {
                    Ok(report) => Response::Report(report),
                    Err(e) => {
                        stats.plan_errors += 1;
                        Response::Error {
                            code: ErrorCode::Plan,
                            message: e.to_string(),
                        }
                    }
                },
            },
            Request::SubmitBatch(specs) => {
                // All or nothing on validation: a batch holding an
                // invalid spec is refused before any spec is admitted.
                if let Err(err) = specs.iter().try_for_each(SubmitSpec::validate) {
                    return Response::Error {
                        code: ErrorCode::Malformed,
                        message: err.to_string(),
                    };
                }
                let mut merged = ReportMsg::default();
                for spec in specs {
                    match spec.to_request(service.now()) {
                        Err(err) => {
                            return Response::Error {
                                code: ErrorCode::Malformed,
                                message: err.to_string(),
                            }
                        }
                        Ok(request) => match service.submit(request) {
                            Ok(report) => merged.absorb(report),
                            Err(e) => {
                                stats.plan_errors += 1;
                                return Response::Error {
                                    code: ErrorCode::Plan,
                                    message: e.to_string(),
                                };
                            }
                        },
                    }
                }
                Response::Report(merged)
            }
            Request::AdvanceTo { to } => {
                if !to.is_finite() {
                    return Response::Error {
                        code: ErrorCode::Malformed,
                        message: "advance target must be finite".to_owned(),
                    };
                }
                match service.advance_to(SimTime::new(to)) {
                    Ok(report) => Response::Report(report),
                    Err(e) => {
                        stats.plan_errors += 1;
                        Response::Error {
                            code: ErrorCode::Plan,
                            message: e.to_string(),
                        }
                    }
                }
            }
            Request::Drain => match service.drain() {
                Ok(report) => Response::Report(report),
                Err(e) => {
                    stats.plan_errors += 1;
                    Response::Error {
                        code: ErrorCode::Plan,
                        message: e.to_string(),
                    }
                }
            },
            Request::Metrics => Response::Metrics {
                text: service.exposition(),
            },
            Request::Audit { query } => match service.audit(QueryId::new(query)) {
                Some(text) => Response::Audit { found: true, text },
                None => Response::Audit {
                    found: false,
                    text: String::new(),
                },
            },
            Request::Shutdown => Response::Bye,
        }
    }
}

/// Trips the switch when its connection thread unwinds, so a panic in
/// the engine closes every connection instead of leaving clients waiting.
struct TripOnPanic<'a>(&'a ShutdownSwitch);

impl Drop for TripOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.trip();
        }
    }
}
