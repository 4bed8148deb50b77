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
//!   can observe the shutdown flag, decode them, and forward
//!   `(connection, Request)` pairs over an mpsc channel;
//! * the **engine loop** drains that channel, executes each request
//!   against the [`QueryService`], and writes the response frame
//!   straight back on the connection's own socket. Requests from one
//!   connection are processed in arrival order; requests from different
//!   connections interleave in channel order.
//!
//! Malformed frames get an [`ErrorCode::Malformed`] reply and the
//! connection is closed (framing cannot be resynchronized); plan
//! errors get [`ErrorCode::Plan`] and the connection lives on. A
//! [`Request::Shutdown`] from any client — or an external trip of the
//! [`ShutdownSwitch`] — stops the accept loop, answers [`Response::Bye`]
//! and joins the workers before returning.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

use crate::proto::{
    write_frame, ErrorCode, FrameReader, ReadEvent, ReportMsg, Request, Response, WireError,
    PROTOCOL_VERSION,
};
use crate::service::QueryService;

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
    /// Response frames written.
    pub frames_out: u64,
    /// Connections dropped over malformed frames.
    pub decode_errors: u64,
    /// Requests answered with [`ErrorCode::Plan`].
    pub plan_errors: u64,
}

/// What a reader worker sends the engine loop.
enum ConnEvent {
    /// A decoded request frame.
    Request(u64, Request),
    /// The connection's stream broke protocol; close after replying.
    Malformed(u64, WireError),
    /// The connection ended (EOF or I/O error).
    Closed(u64),
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
        // Write halves, owned by the engine loop.
        let mut writers: HashMap<u64, TcpStream> = HashMap::new();
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
                            writers.insert(conn, stream);
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

                // Phase 2: execute pending requests. Block briefly on
                // the first, then drain whatever queued behind it.
                let first = match rx.recv_timeout(self.config.poll_interval) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => None,
                };
                let mut pending: Vec<ConnEvent> = Vec::new();
                if let Some(event) = first {
                    pending.push(event);
                    while let Ok(event) = rx.try_recv() {
                        pending.push(event);
                    }
                }
                for event in pending {
                    match event {
                        ConnEvent::Closed(conn) => {
                            writers.remove(&conn);
                            live_readers -= 1;
                        }
                        ConnEvent::Malformed(conn, err) => {
                            stats.decode_errors += 1;
                            if let Some(stream) = writers.get_mut(&conn) {
                                let body = Response::Error {
                                    code: ErrorCode::Malformed,
                                    message: err.to_string(),
                                }
                                .encode();
                                let _ = write_frame(stream, &body);
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                            }
                            // The reader worker exits on its own (socket
                            // shut down) and reports Closed.
                        }
                        ConnEvent::Request(conn, request) => {
                            stats.frames_in += 1;
                            let response = self.execute(service, request, &mut stats);
                            let done = matches!(response, Response::Bye);
                            if let Some(stream) = writers.get_mut(&conn) {
                                if write_frame(stream, &response.encode()).is_ok() {
                                    stats.frames_out += 1;
                                } else {
                                    let _ = stream.shutdown(std::net::Shutdown::Both);
                                }
                            }
                            if done {
                                self.shutdown.trip();
                            }
                        }
                    }
                }
            }

            // Shutdown: close every socket so blocked readers wake, then
            // let the scope join them.
            for stream in writers.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
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

/// One reader worker: assembles frames under the read timeout, decodes,
/// forwards. Exits on EOF, I/O error, malformed frame or shutdown.
fn read_loop(conn: u64, mut stream: TcpStream, tx: &Sender<ConnEvent>, shutdown: &ShutdownSwitch) {
    let mut frames = FrameReader::new();
    loop {
        if shutdown.is_tripped() {
            break;
        }
        match frames.poll(&mut stream) {
            Ok(ReadEvent::NotReady) => {}
            Ok(ReadEvent::Eof) => break,
            Err(_) => break,
            Ok(ReadEvent::Frame(body)) => match Request::decode(&body) {
                Ok(request) => {
                    if tx.send(ConnEvent::Request(conn, request)).is_err() {
                        break;
                    }
                }
                Err(err) => {
                    let _ = tx.send(ConnEvent::Malformed(conn, err));
                    break;
                }
            },
        }
    }
    let _ = tx.send(ConnEvent::Closed(conn));
}

/// Drains a channel receiver without blocking (used by tests).
#[doc(hidden)]
pub fn drain_events<T>(rx: &Receiver<T>) -> Vec<T> {
    let mut out = Vec::new();
    while let Ok(x) = rx.try_recv() {
        out.push(x);
    }
    out
}
