//! The TCP front door: a nonblocking listener plus a small worker pool.
//!
//! # Architecture
//!
//! One thread — the caller of [`NetServer::serve`] — owns the engine
//! and is the only thread that ever touches it, which is what preserves
//! the deterministic, totally-ordered dispatch the sim-clock suites pin
//! down. Around it:
//!
//! * the **listener** is nonblocking and polled from the engine loop;
//! * each accepted connection gets a **reader worker** from a bounded
//!   pool ([`NetConfig::max_connections`]; connections beyond the bound
//!   are refused with [`ErrorCode::Busy`]). Workers assemble frames
//!   incrementally ([`FrameReader`]) under a short read timeout so they
//!   can observe the shutdown flag, decode them, and forward every
//!   request one `read` completed as a single batch over an mpsc
//!   channel;
//! * the **engine loop** works in turns: it takes every batch queued
//!   at the start of the turn, executes each request against the
//!   [`QueryService`], and encodes the response into its connection's
//!   outbound buffer, which lives as long as the connection. At the end
//!   of the turn each buffer goes out in one write, or earlier once it
//!   holds 64 KiB. Requests from one connection are processed in
//!   arrival order; requests from different connections interleave in
//!   channel order.
//!
//! Malformed frames get an [`ErrorCode::Malformed`] reply, after the
//! answers to the frames before them, and the connection is closed
//! (framing cannot be resynchronized); plan errors get
//! [`ErrorCode::Plan`] and the connection lives on. A response too large
//! to frame closes its connection unsent. A write of a connection's
//! buffer that has not finished within [`WRITE_TIMEOUT`], or fails,
//! evicts the connection ([`ServerStats::evicted`]), so a client that
//! stops reading, or reads too slowly, stalls the others for at most
//! that long. Requests still queued from a closed or evicted connection
//! are not run. A [`Request::Shutdown`] from any client — or an external
//! trip of the [`ShutdownSwitch`] — stops the accept loop, answers
//! [`Response::Bye`] and joins the workers before returning.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

use crate::proto::{
    write_frame, ErrorCode, FrameReader, ReadEvent, ReportMsg, Request, Response, SubmitSpec,
    WireError, PROTOCOL_VERSION,
};
use crate::service::QueryService;

/// Outbound bytes at which a connection's buffer is written before its
/// turn ends, so one turn's answers never pile up without bound.
const FLUSH_AT: usize = 64 * 1024;

/// Longest one write of a connection's buffer may block the engine
/// loop. A connection whose write has not finished by then (a client
/// that stopped reading, or reads too slowly) is evicted.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Reader-worker pool bound; further connections are refused busy.
    pub max_connections: usize,
    /// Engine-loop wait for the next request before re-polling the
    /// listener; also the workers' read timeout (shutdown latency).
    pub poll_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 8,
            poll_interval: Duration::from_millis(2),
        }
    }
}

/// Cooperative stop flag shared by the engine loop, the workers and —
/// via [`NetServer::shutdown_switch`] — any external controller.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSwitch(Arc<AtomicBool>);

impl ShutdownSwitch {
    /// Creates an untripped switch.
    #[must_use]
    pub fn new() -> Self {
        ShutdownSwitch::default()
    }

    /// Trips the switch; the server notices within a poll interval.
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
    /// Connections accepted into the pool.
    pub accepted: u64,
    /// Connections refused because the pool was full.
    pub refused: u64,
    /// Request frames executed.
    pub frames_in: u64,
    /// Response frames written to their socket.
    pub frames_out: u64,
    /// Connections dropped over malformed frames.
    pub decode_errors: u64,
    /// Requests answered with [`ErrorCode::Plan`].
    pub plan_errors: u64,
    /// Connections shut down because a write failed or did not finish
    /// within [`WRITE_TIMEOUT`].
    pub evicted: u64,
}

/// What a reader worker sends the engine loop.
enum ConnEvent {
    /// The request frames one read completed, in arrival order.
    Requests(u64, Vec<Request>),
    /// The connection's stream broke protocol; close after replying.
    Malformed(u64, WireError),
    /// The connection ended (EOF or I/O error).
    Closed(u64),
}

/// The engine loop's half of one connection: its socket and the
/// response frames encoded for it since the last write.
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
    /// Buffers `response`'s frame and writes the buffer once it holds
    /// [`FLUSH_AT`] bytes. Returns `false` when the connection must go:
    /// a write failed, or the frame was too large to send, in which
    /// case the frames before it are written and the connection closed.
    fn push(&mut self, response: &Response, stats: &mut ServerStats) -> bool {
        if response.encode_frame(&mut self.buf).is_err() {
            self.close(stats);
            return false;
        }
        self.frames += 1;
        self.buf.len() < FLUSH_AT || self.flush(stats)
    }

    /// Writes the buffered frames, all within [`WRITE_TIMEOUT`]. On
    /// failure — a peer gone, or the deadline passed — shuts the
    /// connection down, counts it evicted and returns `false`: the
    /// caller must drop the connection and write nothing more to it.
    fn flush(&mut self, stats: &mut ServerStats) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let written = write_in_time(&mut self.stream, &self.buf).is_ok();
        self.buf.clear();
        let frames = std::mem::take(&mut self.frames);
        if written {
            stats.frames_out += frames;
        } else {
            stats.evicted += 1;
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        written
    }

    /// Writes the buffered frames, then shuts the connection down.
    fn close(&mut self, stats: &mut ServerStats) {
        if self.flush(stats) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Writes all of `bytes`, or fails once [`WRITE_TIMEOUT`] has passed
/// since the call. The socket's write timeout bounds only one `write`
/// call, and a call that moved some bytes returns only once it runs
/// out, so a peer draining a little at a time would otherwise hold the
/// engine loop for a timeout per call; each call gets the time left.
fn write_in_time(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The network front door. Bind once, then [`NetServer::serve`] an
/// engine on it; the call blocks until shutdown.
pub struct NetServer {
    listener: TcpListener,
    config: NetConfig,
    shutdown: ShutdownSwitch,
}

impl NetServer {
    /// Binds the listener (use port 0 for an ephemeral test port) and
    /// switches it to nonblocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates binding and socket-option errors.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            config,
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

    /// Runs the serve loop until shutdown. The calling thread *is* the
    /// engine thread: every request executes here, in channel order.
    ///
    /// # Errors
    ///
    /// Propagates listener I/O errors. Per-connection errors are
    /// handled by dropping the connection, never by failing the server.
    pub fn serve(&self, service: &mut dyn QueryService) -> std::io::Result<ServerStats> {
        let mut stats = ServerStats::default();
        let (tx, rx) = std::sync::mpsc::channel::<ConnEvent>();
        // Write halves and their outbound buffers, owned by the engine
        // loop. A connection leaves the map when it closes or is
        // evicted; its remaining requests are then not run.
        let mut conns: HashMap<u64, Outbound> = HashMap::new();
        let mut pending: Vec<ConnEvent> = Vec::new();
        let mut next_conn: u64 = 0;
        let mut live_readers: usize = 0;

        std::thread::scope(|scope| -> std::io::Result<()> {
            loop {
                if self.shutdown.is_tripped() {
                    break;
                }

                // Phase 1: poll the nonblocking listener.
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            if live_readers >= self.config.max_connections {
                                stats.refused += 1;
                                let mut s = stream;
                                let body = Response::Error {
                                    code: ErrorCode::Busy,
                                    message: "connection pool exhausted".to_owned(),
                                }
                                .encode();
                                let _ = write_frame(&mut s, &body);
                                let _ = s.flush();
                                continue; // dropped: refused
                            }
                            stats.accepted += 1;
                            let conn = next_conn;
                            next_conn += 1;
                            stream.set_nodelay(true).ok();
                            stream.set_read_timeout(Some(self.config.poll_interval))?;
                            let reader = stream.try_clone()?;
                            let out = Outbound {
                                stream,
                                buf: Vec::new(),
                                frames: 0,
                            };
                            conns.insert(conn, out);
                            live_readers += 1;
                            let tx = tx.clone();
                            let shutdown = self.shutdown.clone();
                            scope.spawn(move || read_loop(conn, reader, &tx, &shutdown));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }

                // Phase 2: one engine turn. Block briefly on the first
                // event, then take whatever queued behind it.
                if let Ok(event) = rx.recv_timeout(self.config.poll_interval) {
                    pending.push(event);
                }
                while let Ok(event) = rx.try_recv() {
                    pending.push(event);
                }
                for event in pending.drain(..) {
                    match event {
                        ConnEvent::Closed(conn) => {
                            // A half-closed client still reads its answers.
                            if let Some(mut out) = conns.remove(&conn) {
                                out.flush(&mut stats);
                            }
                            live_readers -= 1;
                        }
                        ConnEvent::Malformed(conn, err) => {
                            stats.decode_errors += 1;
                            if let Some(mut out) = conns.remove(&conn) {
                                // Behind the answers to the valid frames
                                // before it; not an answer, so not counted.
                                let reply = Response::Error {
                                    code: ErrorCode::Malformed,
                                    message: err.to_string(),
                                };
                                let _ = reply.encode_frame(&mut out.buf);
                                out.close(&mut stats);
                            }
                            // The reader worker exits on its own and
                            // reports Closed.
                        }
                        ConnEvent::Requests(conn, requests) => {
                            for request in requests {
                                let Some(out) = conns.get_mut(&conn) else {
                                    break;
                                };
                                stats.frames_in += 1;
                                let response = self.execute(service, request, &mut stats);
                                if matches!(response, Response::Bye) {
                                    self.shutdown.trip();
                                }
                                if !out.push(&response, &mut stats) {
                                    conns.remove(&conn);
                                }
                            }
                        }
                    }
                }
                // End of the turn: one write per connection with answers.
                conns.retain(|_, out| out.flush(&mut stats));
            }

            // Shutdown: close every socket so blocked readers wake, then
            // let the scope join them.
            for out in conns.values() {
                let _ = out.stream.shutdown(std::net::Shutdown::Both);
            }
            Ok(())
        })?;
        Ok(stats)
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

/// One reader worker: reads under the read timeout, decodes every frame
/// a read completed and forwards them as one batch. Exits on EOF, I/O
/// error, malformed frame or shutdown.
fn read_loop(conn: u64, mut stream: TcpStream, tx: &Sender<ConnEvent>, shutdown: &ShutdownSwitch) {
    let mut frames = FrameReader::new();
    while !shutdown.is_tripped() {
        match frames.poll(&mut stream) {
            Ok(ReadEvent::NotReady) => continue,
            Ok(ReadEvent::Data) => {}
            Ok(ReadEvent::Eof) | Err(_) => break,
        }
        let mut requests = Vec::new();
        // `Some` ends the connection after this batch: with a Malformed
        // event, or silently for an announced length over the bound, as
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
        if !requests.is_empty() && tx.send(ConnEvent::Requests(conn, requests)).is_err() {
            break;
        }
        if let Some(malformed) = stop {
            if let Some(err) = malformed {
                let _ = tx.send(ConnEvent::Malformed(conn, err));
            }
            break;
        }
    }
    let _ = tx.send(ConnEvent::Closed(conn));
}
