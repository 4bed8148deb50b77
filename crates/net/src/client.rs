//! A blocking client for the front-door protocol.
//!
//! One [`NetClient`] wraps one TCP connection and speaks strict
//! request/response: every call writes one frame and blocks for the
//! answering frame. That is all the loopback suites need. A caller that
//! keeps several frames in flight, as the serving benchmark does, writes
//! and reads them on its own socket with [`write_frame`] and
//! [`read_frame_blocking`].

use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{
    read_frame_blocking, write_frame, ErrorCode, ReportMsg, Request, Response, SubmitSpec,
    WireError, PROTOCOL_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's response frame failed to decode.
    Wire(WireError),
    /// The server answered [`Response::Error`].
    Remote {
        /// The server's error category.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a frame the call did not expect.
    Unexpected(&'static str),
    /// The server closed the connection mid-conversation.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            NetError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// One blocking connection to a [`crate::server::NetServer`].
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects and performs the `Hello`/`Welcome` version handshake.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a protocol-version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = NetClient { stream };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Welcome { .. } => Ok(client),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Welcome")),
        }
    }

    /// Writes one request frame and blocks for the response frame.
    ///
    /// # Errors
    ///
    /// Fails on transport or decode errors, or a server disconnect.
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        write_frame(&mut self.stream, &request.encode())?;
        match read_frame_blocking(&mut self.stream)? {
            None => Err(NetError::Disconnected),
            Some(body) => Ok(Response::decode(&body)?),
        }
    }

    fn expect_report(response: Response) -> Result<ReportMsg, NetError> {
        match response {
            Response::Report(report) => Ok(report),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Report")),
        }
    }

    /// Round-trips a ping token.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a non-matching echo.
    pub fn ping(&mut self, token: u64) -> Result<(), NetError> {
        match self.call(&Request::Ping { token })? {
            Response::Pong { token: echoed } if echoed == token => Ok(()),
            Response::Pong { .. } => Err(NetError::Unexpected("wrong pong token")),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Pong")),
        }
    }

    /// Submits one query.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<ReportMsg, NetError> {
        Self::expect_report(self.call(&Request::Submit(spec))?)
    }

    /// Submits a batch; the server merges the per-query outcomes into
    /// one report.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn submit_batch(&mut self, specs: Vec<SubmitSpec>) -> Result<ReportMsg, NetError> {
        Self::expect_report(self.call(&Request::SubmitBatch(specs))?)
    }

    /// Advances the server's clock (sim mode) / pumps dispatch (wall
    /// mode).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn advance_to(&mut self, to: f64) -> Result<ReportMsg, NetError> {
        Self::expect_report(self.call(&Request::AdvanceTo { to })?)
    }

    /// Force-dispatches everything still queued on the server.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn drain(&mut self) -> Result<ReportMsg, NetError> {
        Self::expect_report(self.call(&Request::Drain)?)
    }

    /// Fetches the metrics exposition.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Metrics")),
        }
    }

    /// Fetches a query's rendered plan audit, if the server retained
    /// one.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn audit(&mut self, query: u64) -> Result<Option<String>, NetError> {
        match self.call(&Request::Audit { query })? {
            Response::Audit { found: true, text } => Ok(Some(text)),
            Response::Audit { found: false, .. } => Ok(None),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Audit")),
        }
    }

    /// Asks the server to stop serving.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side error reply.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            _ => Err(NetError::Unexpected("expected Bye")),
        }
    }
}
