//! The wire protocol of the network front door.
//!
//! # Frame layout
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+-------------------------------+
//! | u32 LE length  | body (`length` bytes)         |
//! +----------------+-------------------------------+
//! body = u8 kind tag, then the kind's fields in order
//! ```
//!
//! Field encodings are fixed and little-endian throughout:
//!
//! * `u8`/`u32`/`u64` — little-endian, fixed width;
//! * `f64` — IEEE-754 bit pattern via [`f64::to_bits`], little-endian.
//!   Values round-trip **bit-exactly**, which is what lets the loopback
//!   suite assert per-query IV equality down to the last ULP;
//! * `Option<f64>` — one tag byte (`0`/`1`) then the payload if `1`;
//! * `String` — `u32` byte length then UTF-8 bytes;
//! * `Vec<T>` — `u32` element count then the elements.
//!
//! Decoding is total: any byte sequence either parses or returns a
//! [`WireError`] — malformed input must never panic (the protocol
//! property suite fuzzes this). Semantic validation (positive weights,
//! selectivity in `(0, 1]`, finite times) happens in
//! [`SubmitSpec::to_request`], *before* the catalog types' constructors
//! could assert, so a hostile client cannot crash the server.
//!
//! The body length is bounded by [`MAX_FRAME_LEN`]; a peer announcing a
//! longer frame is cut off before any allocation happens.

use ivdss_catalog::ids::TableId;
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::BusinessValue;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_simkernel::time::SimTime;

/// Hard upper bound on a frame body, shared by both peers. Large enough
/// for several thousand batched submissions, small enough that a
/// garbage length prefix cannot drive an allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Protocol version carried in [`Request::Hello`]; bumped on any frame
/// layout change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Why a byte sequence failed to parse as a frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field was complete.
    Truncated,
    /// The first byte named no known frame kind.
    UnknownKind(u8),
    /// A length or count field exceeded the frame bound.
    TooLarge,
    /// Bytes remained after the last field of the frame.
    TrailingBytes,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An `Option` tag byte was neither 0 nor 1.
    BadTag(u8),
    /// The frame parsed but a field failed semantic validation.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::TooLarge => write!(f, "length field exceeds the frame bound"),
            WireError::TrailingBytes => write!(f, "trailing bytes after the frame"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTag(t) => write!(f, "bad option tag {t}"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Error categories a server can send back in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame failed to decode or validate.
    Malformed,
    /// Planning the query failed ([`ivdss_core::plan::PlanError`]).
    Plan,
    /// The server is at its connection bound.
    Busy,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Plan => 2,
            ErrorCode::Busy => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Plan),
            3 => Ok(ErrorCode::Busy),
            4 => Ok(ErrorCode::Internal),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// One query submission as it travels over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// The query id (client-assigned, unique per session).
    pub id: u64,
    /// The footprint's table ids.
    pub tables: Vec<u32>,
    /// Cost-profile weight (must be finite and positive).
    pub weight: f64,
    /// Result selectivity (must be in `(0, 1]`).
    pub selectivity: f64,
    /// Business value (must be finite and positive).
    pub business_value: f64,
    /// Submission time in simulation units. `None` lets the server
    /// stamp the request with its own clock — the wall-clock mode;
    /// deterministic (sim-clock) sessions supply explicit times.
    pub submitted_at: Option<f64>,
}

impl SubmitSpec {
    /// Builds the wire form of a request whose submission time the
    /// server should stamp from its own clock.
    #[must_use]
    pub fn from_request(request: &QueryRequest) -> Self {
        SubmitSpec {
            id: request.id().raw(),
            tables: request
                .query
                .tables()
                .iter()
                .map(|t| t.index() as u32)
                .collect(),
            weight: request.query.weight(),
            selectivity: request.query.selectivity(),
            business_value: request.business_value.value(),
            submitted_at: Some(request.submitted_at.value()),
        }
    }

    /// Checks every field the engine's constructors would reject. No
    /// check depends on the stamping time, so a whole batch can be
    /// validated before any of it is submitted.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Invalid`] on an empty footprint, a
    /// non-positive or non-finite weight/business value, a selectivity
    /// outside `(0, 1]`, or a non-finite submission time.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.tables.is_empty() {
            return Err(WireError::Invalid("empty table footprint"));
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(WireError::Invalid("weight must be positive and finite"));
        }
        if !(self.selectivity > 0.0 && self.selectivity <= 1.0) {
            return Err(WireError::Invalid("selectivity must be in (0, 1]"));
        }
        if !(self.business_value.is_finite() && self.business_value > 0.0) {
            return Err(WireError::Invalid(
                "business value must be positive and finite",
            ));
        }
        if self.submitted_at.is_some_and(|t| !t.is_finite()) {
            return Err(WireError::Invalid("submission time must be finite"));
        }
        Ok(())
    }

    /// Validates the spec and converts it to an engine request, stamping
    /// `now` when no submission time was carried.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Invalid`] on any field
    /// [`SubmitSpec::validate`] refuses.
    pub fn to_request(&self, now: SimTime) -> Result<QueryRequest, WireError> {
        self.validate()?;
        let submitted_at = self.submitted_at.map_or(now, SimTime::new);
        let tables: Vec<TableId> = self.tables.iter().map(|&t| TableId::new(t)).collect();
        let spec =
            QuerySpec::with_profile(QueryId::new(self.id), tables, self.weight, self.selectivity);
        Ok(QueryRequest::new(spec, submitted_at)
            .with_business_value(BusinessValue::new(self.business_value)))
    }
}

/// Where a submitted query was routed, echoed back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteMsg {
    /// The chosen shard.
    pub shard: u32,
    /// Replicated footprint tables the shard owns.
    pub covered: u32,
    /// Replicated footprint tables served by remote-base fallback.
    pub missing: u32,
}

/// A query dropped during a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedMsg {
    /// The shard that shed it (`None` = cluster-wide, no shard live).
    pub shard: Option<u32>,
    /// The dropped query.
    pub query: u64,
}

/// A delivered query, with every float carried bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionMsg {
    /// The completed query.
    pub query: u64,
    /// The shard that served it.
    pub shard: u32,
    /// Delivered information value.
    pub delivered_iv: f64,
    /// Computational latency.
    pub cl: f64,
    /// Synchronization latency.
    pub sl: f64,
    /// Admission-queue waiting time.
    pub waited: f64,
    /// Delivery time.
    pub finish: f64,
    /// IV lost to injected degradation (zero without faults).
    pub iv_lost: f64,
    /// `true` if an outage forced a dispatch-time re-plan.
    pub replanned: bool,
}

/// What one engine step (submit / advance / drain) did — the wire form
/// of a cluster or engine report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportMsg {
    /// Routing of the submitted query, if one was routed.
    pub routed: Option<RouteMsg>,
    /// Queries dropped during the step.
    pub shed: Vec<ShedMsg>,
    /// Queries delivered during the step, in dispatch order.
    pub completions: Vec<CompletionMsg>,
}

impl ReportMsg {
    /// Folds another step's outcome into this one (batch submission).
    /// The last routing decision wins; sheds and completions append.
    pub fn absorb(&mut self, other: ReportMsg) {
        if other.routed.is_some() {
            self.routed = other.routed;
        }
        self.shed.extend(other.shed);
        self.completions.extend(other.completions);
    }
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session opener: protocol version check.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Liveness / latency probe; echoed back in [`Response::Pong`].
    Ping {
        /// Opaque token echoed back.
        token: u64,
    },
    /// Submit one query.
    Submit(SubmitSpec),
    /// Submit a batch of queries in order; the server answers with one
    /// merged report (per-query outcomes are distinguishable by id).
    SubmitBatch(Vec<SubmitSpec>),
    /// Advance the server's clock to `to` (sim mode) or just pump
    /// dispatch (wall mode, where the clock moves on its own).
    AdvanceTo {
        /// Target time in simulation units.
        to: f64,
    },
    /// Force-dispatch everything still queued.
    Drain,
    /// Fetch the Prometheus-style metrics exposition.
    Metrics,
    /// Fetch the rendered plan-decision audit of a query.
    Audit {
        /// The queried id.
        query: u64,
    },
    /// Ask the server to stop serving (it answers [`Response::Bye`] to
    /// every connection's next read and exits its accept loop).
    Shutdown,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session accepted at this protocol version.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The echoed token.
        token: u64,
    },
    /// Outcome of a submit / batch / advance / drain.
    Report(ReportMsg),
    /// The metrics exposition text.
    Metrics {
        /// Prometheus-style text dump.
        text: String,
    },
    /// A plan-decision audit (empty `text` when `found` is `false`).
    Audit {
        /// Whether the query had a retained audit.
        found: bool,
        /// The rendered audit.
        text: String,
    },
    /// The request failed; the connection stays usable unless the
    /// error was [`ErrorCode::Malformed`] (framing is unrecoverable).
    Error {
        /// The failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledged.
    Bye,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_spec(out: &mut Vec<u8>, spec: &SubmitSpec) {
    put_u64(out, spec.id);
    put_u32(out, spec.tables.len() as u32);
    for t in &spec.tables {
        put_u32(out, *t);
    }
    put_f64(out, spec.weight);
    put_f64(out, spec.selectivity);
    put_f64(out, spec.business_value);
    put_opt_f64(out, spec.submitted_at);
}

fn put_report(out: &mut Vec<u8>, report: &ReportMsg) {
    match &report.routed {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_u32(out, r.shard);
            put_u32(out, r.covered);
            put_u32(out, r.missing);
        }
    }
    put_u32(out, report.shed.len() as u32);
    for s in &report.shed {
        put_opt_u32(out, s.shard);
        put_u64(out, s.query);
    }
    put_u32(out, report.completions.len() as u32);
    for c in &report.completions {
        put_u64(out, c.query);
        put_u32(out, c.shard);
        put_f64(out, c.delivered_iv);
        put_f64(out, c.cl);
        put_f64(out, c.sl);
        put_f64(out, c.waited);
        put_f64(out, c.finish);
        put_f64(out, c.iv_lost);
        put_bool(out, c.replanned);
    }
}

impl Request {
    /// Encodes the frame body (kind tag + fields, no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                put_u8(&mut out, 0x01);
                put_u32(&mut out, *version);
            }
            Request::Ping { token } => {
                put_u8(&mut out, 0x02);
                put_u64(&mut out, *token);
            }
            Request::Submit(spec) => {
                put_u8(&mut out, 0x03);
                put_spec(&mut out, spec);
            }
            Request::SubmitBatch(specs) => {
                put_u8(&mut out, 0x04);
                put_u32(&mut out, specs.len() as u32);
                for spec in specs {
                    put_spec(&mut out, spec);
                }
            }
            Request::AdvanceTo { to } => {
                put_u8(&mut out, 0x05);
                put_f64(&mut out, *to);
            }
            Request::Drain => put_u8(&mut out, 0x06),
            Request::Metrics => put_u8(&mut out, 0x07),
            Request::Audit { query } => {
                put_u8(&mut out, 0x08);
                put_u64(&mut out, *query);
            }
            Request::Shutdown => put_u8(&mut out, 0x09),
        }
        out
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any malformed input; never panics.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let req = match kind {
            0x01 => Request::Hello { version: r.u32()? },
            0x02 => Request::Ping { token: r.u64()? },
            0x03 => Request::Submit(r.spec()?),
            0x04 => {
                let n = r.count(SPEC_MIN_LEN)?;
                let mut specs = Vec::with_capacity(n);
                for _ in 0..n {
                    specs.push(r.spec()?);
                }
                Request::SubmitBatch(specs)
            }
            0x05 => Request::AdvanceTo { to: r.f64()? },
            0x06 => Request::Drain,
            0x07 => Request::Metrics,
            0x08 => Request::Audit { query: r.u64()? },
            0x09 => Request::Shutdown,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the frame body (kind tag + fields, no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this response to `out` as one whole frame: the `u32` LE
    /// length prefix, patched in place once the body behind it is
    /// encoded, then the body. The bytes are those of
    /// [`write_frame`] over [`Response::encode`], without the two
    /// intermediate buffers, so a server can gather many responses into
    /// one reused buffer and write them at once.
    ///
    /// # Errors
    ///
    /// Rejects a body over [`MAX_FRAME_LEN`] with
    /// [`std::io::ErrorKind::InvalidData`], as [`write_frame`] does, and
    /// leaves `out` as it was.
    pub fn encode_frame(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.encode_into(out);
        let len = out.len() - start - 4;
        if len > MAX_FRAME_LEN {
            out.truncate(start);
            return Err(frame_too_large());
        }
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }

    /// Appends the frame body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Welcome { version } => {
                put_u8(out, 0x81);
                put_u32(out, *version);
            }
            Response::Pong { token } => {
                put_u8(out, 0x82);
                put_u64(out, *token);
            }
            Response::Report(report) => {
                put_u8(out, 0x83);
                put_report(out, report);
            }
            Response::Metrics { text } => {
                put_u8(out, 0x84);
                put_str(out, text);
            }
            Response::Audit { found, text } => {
                put_u8(out, 0x85);
                put_bool(out, *found);
                put_str(out, text);
            }
            Response::Error { code, message } => {
                put_u8(out, 0x86);
                put_u8(out, code.to_u8());
                put_str(out, message);
            }
            Response::Bye => put_u8(out, 0x87),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any malformed input; never panics.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let resp = match kind {
            0x81 => Response::Welcome { version: r.u32()? },
            0x82 => Response::Pong { token: r.u64()? },
            0x83 => Response::Report(r.report()?),
            0x84 => Response::Metrics { text: r.string()? },
            0x85 => Response::Audit {
                found: r.bool()?,
                text: r.string()?,
            },
            0x86 => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: r.string()?,
            },
            0x87 => Response::Bye,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Minimum encoded length of a [`SubmitSpec`] — used to bound batch
/// counts before allocating.
const SPEC_MIN_LEN: usize = 8 + 4 + 8 + 8 + 8 + 1;

/// Minimum encoded length of a [`ShedMsg`] / [`CompletionMsg`].
const SHED_MIN_LEN: usize = 1 + 8;
const COMPLETION_LEN: usize = 8 + 4 + 8 * 6 + 1;

/// A bounds-checked cursor over a frame body.
struct Reader<'b> {
    body: &'b [u8],
    at: usize,
}

impl<'b> Reader<'b> {
    fn new(body: &'b [u8]) -> Self {
        Reader { body, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::TooLarge)?;
        if end > self.body.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other)),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(WireError::BadTag(other)),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Reads an element count and sanity-checks it against the bytes
    /// actually remaining, so a hostile count cannot drive a huge
    /// allocation.
    fn count(&mut self, min_element_len: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.body.len() - self.at;
        if n.saturating_mul(min_element_len.max(1)) > remaining {
            return Err(WireError::TooLarge);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn spec(&mut self) -> Result<SubmitSpec, WireError> {
        let id = self.u64()?;
        let n_tables = self.count(4)?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            tables.push(self.u32()?);
        }
        Ok(SubmitSpec {
            id,
            tables,
            weight: self.f64()?,
            selectivity: self.f64()?,
            business_value: self.f64()?,
            submitted_at: self.opt_f64()?,
        })
    }

    fn report(&mut self) -> Result<ReportMsg, WireError> {
        let routed = match self.u8()? {
            0 => None,
            1 => Some(RouteMsg {
                shard: self.u32()?,
                covered: self.u32()?,
                missing: self.u32()?,
            }),
            other => return Err(WireError::BadTag(other)),
        };
        let n_shed = self.count(SHED_MIN_LEN)?;
        let mut shed = Vec::with_capacity(n_shed);
        for _ in 0..n_shed {
            shed.push(ShedMsg {
                shard: self.opt_u32()?,
                query: self.u64()?,
            });
        }
        let n_done = self.count(COMPLETION_LEN)?;
        let mut completions = Vec::with_capacity(n_done);
        for _ in 0..n_done {
            completions.push(CompletionMsg {
                query: self.u64()?,
                shard: self.u32()?,
                delivered_iv: self.f64()?,
                cl: self.f64()?,
                sl: self.f64()?,
                waited: self.f64()?,
                finish: self.f64()?,
                iv_lost: self.f64()?,
                replanned: self.bool()?,
            });
        }
        Ok(ReportMsg {
            routed,
            shed,
            completions,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Prefixes `body` with its `u32` LE length and writes the frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies over [`MAX_FRAME_LEN`] with
/// [`std::io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(frame_too_large());
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

fn frame_too_large() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "frame body exceeds MAX_FRAME_LEN",
    )
}

/// Reads one complete frame with blocking semantics. Returns `None` on
/// a clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; maps an announced length over
/// [`MAX_FRAME_LEN`] and EOF mid-frame to
/// [`std::io::ErrorKind::InvalidData`] /
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame_blocking(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "announced frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// What [`FrameReader::poll`] observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEvent {
    /// The read appended bytes; every frame they completed is ready for
    /// [`FrameReader::next_frame`].
    Data,
    /// The peer closed the connection at a frame boundary.
    Eof,
}

/// Initial size of a [`FrameReader`]'s buffer, which doubles whenever a
/// partial frame fills it.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame assembly over a socket: a read returns whatever has
/// arrived, so bytes accumulate across [`FrameReader::poll`] calls until
/// their frames are whole.
///
/// Each [`FrameReader::poll`] is one `read`; [`FrameReader::next_frame`]
/// then hands out the frames it completed, borrowed from the buffer and
/// consumed by offset. The unconsumed tail moves to the front once per
/// read, not once per frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes; `buf[start..end]` are not consumed yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads once from `r` into the buffer. Take every complete frame
    /// with [`FrameReader::next_frame`] before polling again: bytes still
    /// buffered at EOF count as a frame cut short.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, a read that would block or timed out
    /// included; EOF with a partial frame buffered is
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn poll(&mut self, r: &mut impl std::io::Read) -> std::io::Result<ReadEvent> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // A partial frame fills the buffer. Frames are bounded, so
            // doubling stops below twice the largest one.
            let grown = (2 * self.buf.len()).max(READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(ReadEvent::Eof),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(ReadEvent::Data);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes the next complete buffered frame body, or `None` until more
    /// bytes arrive.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the buffered
    /// length prefix exceeds [`MAX_FRAME_LEN`].
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let pending = &self.buf[self.start..self.end];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "announced frame length exceeds MAX_FRAME_LEN",
            ));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let body = self.start + 4..self.start + 4 + len;
        self.start = body.end;
        Ok(Some(&self.buf[body]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Ping { token: 42 },
            Request::Submit(SubmitSpec {
                id: 7,
                tables: vec![0, 3, 9],
                weight: 1.5,
                selectivity: 0.01,
                business_value: 2.0,
                submitted_at: Some(11.25),
            }),
            Request::AdvanceTo { to: 99.5 },
            Request::Drain,
            Request::Metrics,
            Request::Audit { query: 5 },
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Welcome {
                version: PROTOCOL_VERSION,
            },
            Response::Pong { token: 1 },
            Response::Report(ReportMsg {
                routed: Some(RouteMsg {
                    shard: 1,
                    covered: 2,
                    missing: 0,
                }),
                shed: vec![ShedMsg {
                    shard: None,
                    query: 3,
                }],
                completions: vec![CompletionMsg {
                    query: 4,
                    shard: 1,
                    delivered_iv: 0.5,
                    cl: 1.0,
                    sl: 2.0,
                    waited: 0.0,
                    finish: 3.0,
                    iv_lost: 0.0,
                    replanned: true,
                }],
            }),
            Response::Metrics {
                text: "# HELP x\n".to_owned(),
            },
            Response::Error {
                code: ErrorCode::Plan,
                message: "nope".to_owned(),
            },
            Response::Bye,
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn oversized_response_frame_leaves_the_buffer_as_it_was() {
        let mut out = Vec::new();
        Response::Bye.encode_frame(&mut out).expect("Bye fits");
        let huge = Response::Metrics {
            text: "x".repeat(MAX_FRAME_LEN),
        };
        let err = huge
            .encode_frame(&mut out)
            .expect_err("body over the bound");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(out, [1, 0, 0, 0, 0x87]);
    }

    #[test]
    fn truncation_errors_cleanly() {
        let body = Request::Submit(SubmitSpec {
            id: 7,
            tables: vec![0, 1],
            weight: 1.0,
            selectivity: 0.5,
            business_value: 1.0,
            submitted_at: None,
        })
        .encode();
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_counts_cannot_allocate() {
        // A batch frame announcing u32::MAX specs with a 5-byte body.
        let mut body = vec![0x04];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&body), Err(WireError::TooLarge));
    }

    #[test]
    fn semantic_validation_rejects_what_constructors_would_panic_on() {
        let bad = SubmitSpec {
            id: 1,
            tables: vec![],
            weight: 1.0,
            selectivity: 0.5,
            business_value: 1.0,
            submitted_at: None,
        };
        assert!(bad.to_request(SimTime::ZERO).is_err());
        let bad_weight = SubmitSpec {
            weight: f64::NAN,
            tables: vec![0],
            ..bad.clone()
        };
        assert!(bad_weight.to_request(SimTime::ZERO).is_err());
    }
}
