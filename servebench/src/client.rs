//! The load generator: one connection, a sender thread and a receiver
//! thread, and a closed loop that keeps a fixed window of request
//! frames outstanding.
//!
//! Frames are encoded before the clock starts. With a window of at
//! least two, the server always has the next frame queued while the
//! client turns the previous answer around, so the run measures the
//! server rather than the client's turnaround.

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ivdss_net::proto::{read_frame_blocking, write_frame, Request, Response, SubmitSpec};
use ivdss_net::PROTOCOL_VERSION;

use crate::workload::Offer;

/// Request frames outstanding in the closed loop. Sixteen keep the
/// server busy through the client's turnaround and the thread wake-ups
/// of a contended 2-core host, and span most of the 22-template TPC-H
/// cycle, so every round trip carries a similar mix of cheap and
/// expensive queries and the tail measures the server rather than
/// which templates happened to queue together.
pub const WINDOW: usize = 16;

/// A read that waits longer than this is a server that stopped
/// answering; the run then fails well within its time limit.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The encoded request stream: submit frames in arrival order, then
/// one drain frame.
pub struct Frames {
    /// Length-prefixed frames, ready to write.
    pub wire: Vec<Vec<u8>>,
    /// Number of queries in each submit frame (the drain frame is not
    /// listed).
    pub queries: Vec<usize>,
}

impl Frames {
    /// Encodes `offers` into frames of `batch` queries each (a single
    /// query travels as `Submit`, more as `SubmitBatch`), followed by a
    /// `Drain` frame.
    pub fn encode(offers: &[Offer], batch: usize) -> Frames {
        let mut wire = Vec::with_capacity(offers.len() / batch + 2);
        let mut queries = Vec::with_capacity(offers.len() / batch + 1);
        for chunk in offers.chunks(batch) {
            let mut specs: Vec<SubmitSpec> = chunk
                .iter()
                .map(|o| SubmitSpec::from_request(&o.request))
                .collect();
            let request = if specs.len() == 1 {
                Request::Submit(specs.pop().expect("chunk holds one spec"))
            } else {
                Request::SubmitBatch(specs)
            };
            wire.push(prefixed(&request));
            queries.push(chunk.len());
        }
        wire.push(prefixed(&Request::Drain));
        Frames { wire, queries }
    }

    /// Submit frames (every frame but the final drain).
    pub fn submit_frames(&self) -> usize {
        self.queries.len()
    }

    /// Total bytes on the wire, length prefixes included.
    pub fn bytes(&self) -> usize {
        self.wire.iter().map(Vec::len).sum()
    }
}

fn prefixed(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode()).expect("request frames fit MAX_FRAME_LEN");
    frame
}

/// What one closed-loop pass observed, frame by frame.
pub struct Exchange {
    /// When each frame was written.
    pub sent: Vec<Instant>,
    /// When each frame's answer had been read in full.
    pub received: Vec<Instant>,
    /// The answer bodies, decoded only after the clock stops.
    pub bodies: Vec<Vec<u8>>,
}

impl Exchange {
    /// Wall time from the first frame sent to the last answer read.
    pub fn wall(&self) -> Duration {
        match (self.sent.first(), self.received.last()) {
            (Some(first), Some(last)) => last.duration_since(*first),
            _ => Duration::ZERO,
        }
    }

    /// Round trip of frame `i`.
    pub fn rtt(&self, i: usize) -> Duration {
        self.received[i].duration_since(self.sent[i])
    }
}

/// Opens the connection and completes the `Hello`/`Welcome` handshake.
///
/// # Errors
///
/// Fails on transport errors or an unexpected handshake answer.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    match call(&mut stream, &hello)? {
        Response::Welcome { .. } => Ok(stream),
        other => Err(format!("handshake answered {other:?}")),
    }
}

/// One blocking request/response exchange outside the timed loop.
///
/// # Errors
///
/// Fails on transport or decode errors.
pub fn call(stream: &mut TcpStream, request: &Request) -> Result<Response, String> {
    write_frame(stream, &request.encode()).map_err(|e| format!("write: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    match read_frame_blocking(stream).map_err(|e| format!("read: {e}"))? {
        Some(body) => Response::decode(&body).map_err(|e| format!("decode: {e}")),
        None => Err("server closed the connection".to_owned()),
    }
}

/// Runs the closed loop: the sender writes frame `i` once the answer
/// to frame `i - WINDOW` has arrived; the receiver reads answers in
/// order and hands a credit back for each.
///
/// # Errors
///
/// Fails on a transport error on either half. Answers read before the
/// failure are discarded; the caller treats the run as broken.
pub fn closed_loop(stream: &TcpStream, frames: &Frames) -> Result<Exchange, String> {
    let total = frames.wire.len();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(total);
            for (i, frame) in frames.wire.iter().enumerate() {
                if i >= WINDOW && credit_rx.recv().is_err() {
                    return Err("receiver stopped before every frame was sent".to_owned());
                }
                sent.push(Instant::now());
                if let Err(e) = writer.write_all(frame) {
                    // Wake the receiver rather than let it wait for
                    // answers that will never come.
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(format!("write frame {i}: {e}"));
                }
            }
            Ok(sent)
        });
        let receiver = scope.spawn(move || -> Result<(Vec<Instant>, Vec<Vec<u8>>), String> {
            let mut received = Vec::with_capacity(total);
            let mut bodies = Vec::with_capacity(total);
            for i in 0..total {
                match read_frame_blocking(&mut reader) {
                    Ok(Some(body)) => {
                        received.push(Instant::now());
                        bodies.push(body);
                        // The sender may already be done; a closed
                        // credit channel is not an error.
                        let _ = credit_tx.send(());
                    }
                    Ok(None) => return Err(format!("server closed before answer {i}")),
                    Err(e) => return Err(format!("read answer {i}: {e}")),
                }
            }
            Ok((received, bodies))
        });
        let sent = sender.join().expect("sender thread does not panic");
        let answers = receiver.join().expect("receiver thread does not panic");
        let sent = sent?;
        let (received, bodies) = answers?;
        Ok(Exchange {
            sent,
            received,
            bodies,
        })
    })
}
