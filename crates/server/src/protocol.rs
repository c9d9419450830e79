//! The wire protocol: a length-prefixed binary framing with a versioned
//! handshake, little-endian throughout, zero dependencies.
//!
//! ## Handshake
//!
//! Immediately after connecting, the client sends `MMDB` (4 bytes) followed
//! by its protocol version (`u16`). The server answers with the same magic,
//! its own version, and one status byte (0 = accepted, 1 = unsupported
//! version). On rejection the server closes the connection. One version is
//! accepted (`MIN_PROTOCOL_VERSION == PROTOCOL_VERSION`); the codec
//! functions take the negotiated version so a future dialect has a place to
//! branch.
//!
//! ## Frames
//!
//! Every subsequent message, in both directions, is one frame:
//!
//! ```text
//! u32 payload_len | payload
//! ```
//!
//! A payload is a fixed header, an optional trace context, and the body:
//!
//! ```text
//! request:  u64 id | u8 opcode | u32 deadline_ms | u8 trace_flags | [u64 trace_id] | body
//! response: u64 id | u8 status | u8 trace_flags | [u64 trace_id] | body
//! ```
//!
//! `trace_flags` bit 0 says a `u64 trace_id` follows; bit 1 (requests
//! only) marks the request as head-sampled — the server's tail-sampling
//! trace store keeps sampled requests unconditionally. Responses echo the
//! trace id the server used (the client's, or a server-generated one), so
//! callers can fetch the matching span tree from `/traces/<id>`. A
//! `deadline_ms` of 0 means "no deadline". Oversized `payload_len` values
//! (beyond the server's configured maximum) are answered with a structured
//! error and a clean disconnect, since the stream can no longer be trusted
//! to be framed correctly.
//!
//! ## Opcodes
//!
//! | opcode | name   | request body | response body (status OK) |
//! |--------|--------|--------------|---------------------------|
//! | 1 | `Ping`   | empty | empty |
//! | 2 | `Range`  | `u8 plan, u8 profile (must be 0), u32 bin, f64 pct_min, f64 pct_max` | `u32 n, n×u64 ids, u64 bounds_computed, u64 shortcut_emissions` |
//! | 3 | `Knn`    | `u64 probe_id, u32 k` | `u32 n, n×(u64 id, f64 distance)` |
//! | 4 | `Lookup` | `u64 id` | `u8 kind, u32 width, u32 height, u64 pixels, u8 has_base, u64 base_id` |
//! | 5 | `Stats`  | empty | `u64 binary_count, u64 edited_count, u64 binary_bytes, u64 edited_bytes, u64 cache_hits, u64 cache_misses` |
//!
//! Error responses (any non-zero status) carry a UTF-8 message as their
//! body.

use std::io::{Read, Write};

pub use mmdb_telemetry::TraceContext;

/// Connection preamble bytes.
pub const MAGIC: [u8; 4] = *b"MMDB";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 2;

/// Oldest protocol version the server accepts: only the current one.
pub const MIN_PROTOCOL_VERSION: u16 = PROTOCOL_VERSION;

/// Cap on `payload_len` that the server and the client accept; larger
/// frames are rejected as malformed.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 4 << 20;

/// Fixed prefix of every request payload: id (8) + opcode (1) +
/// deadline (4). A trace-flags byte (and optionally a trace id) follows.
pub const REQUEST_HEADER_LEN: usize = 13;

/// Fixed prefix of every response payload: id (8) + status (1). A
/// trace-flags byte (and optionally a trace id) follows.
pub const RESPONSE_HEADER_LEN: usize = 9;

/// Trace-flags bit: a `u64 trace_id` follows the flags byte.
const TRACE_FLAG_PRESENT: u8 = 0x1;

/// Trace-flags bit (requests only): the client head-sampled this request.
const TRACE_FLAG_SAMPLED: u8 = 0x2;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opcode {
    /// Liveness probe; answered inline even under overload.
    Ping,
    /// Color range query (the paper's §3/§4 retrieval).
    Range,
    /// k-nearest-neighbour search seeded by a stored image.
    Knn,
    /// Point lookup of one image's catalog record.
    Lookup,
    /// Storage statistics.
    Stats,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Ping),
            2 => Some(Opcode::Range),
            3 => Some(Opcode::Knn),
            4 => Some(Opcode::Lookup),
            5 => Some(Opcode::Stats),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Opcode::Ping => 1,
            Opcode::Range => 2,
            Opcode::Knn => 3,
            Opcode::Lookup => 4,
            Opcode::Stats => 5,
        }
    }

    /// Stable lowercase name (metric labels, log lines).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Range => "range",
            Opcode::Knn => "knn",
            Opcode::Lookup => "lookup",
            Opcode::Stats => "stats",
        }
    }
}

/// Response status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Success; the body is opcode-specific.
    Ok,
    /// Malformed frame, unknown opcode, or invalid parameters.
    BadRequest,
    /// The submission queue was full — admission control rejected the
    /// request without queueing it.
    Overloaded,
    /// The request's deadline expired before a worker picked it up; it was
    /// never executed.
    DeadlineExceeded,
    /// The referenced image does not exist.
    NotFound,
    /// The backend failed while executing the request.
    Internal,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::BadRequest),
            2 => Some(Status::Overloaded),
            3 => Some(Status::DeadlineExceeded),
            4 => Some(Status::NotFound),
            5 => Some(Status::Internal),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadRequest => 1,
            Status::Overloaded => 2,
            Status::DeadlineExceeded => 3,
            Status::NotFound => 4,
            Status::Internal => 5,
        }
    }

    /// Stable SCREAMING_SNAKE name, as surfaced to users and logs.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "BAD_REQUEST",
            Status::Overloaded => "OVERLOADED",
            Status::DeadlineExceeded => "DEADLINE_EXCEEDED",
            Status::NotFound => "NOT_FOUND",
            Status::Internal => "INTERNAL",
        }
    }
}

/// Query plan selector carried in [`RangeRequest`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlanKind {
    /// Bound-Widening Method (the paper's proposal; default).
    #[default]
    Bwm,
    /// Rule-Based Method.
    Rbm,
    /// Instantiate every edited image (ground truth).
    Instantiate,
    /// Bound-interval index lookup (precomputed bounds; no rule walk).
    Indexed,
}

impl PlanKind {
    /// Decodes a plan byte.
    pub fn from_u8(b: u8) -> Option<PlanKind> {
        match b {
            0 => Some(PlanKind::Bwm),
            1 => Some(PlanKind::Rbm),
            2 => Some(PlanKind::Instantiate),
            3 => Some(PlanKind::Indexed),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            PlanKind::Bwm => 0,
            PlanKind::Rbm => 1,
            PlanKind::Instantiate => 2,
            PlanKind::Indexed => 3,
        }
    }
}

/// Rule-profile selector carried in [`RangeRequest`]. One profile is
/// served; byte 1, the paper's literal Table 1, is refused at decode
/// ([`DecodeError::UnservedProfile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileKind {
    /// Provably sound bounds (byte 0).
    #[default]
    Conservative,
}

impl ProfileKind {
    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            ProfileKind::Conservative => 0,
        }
    }
}

/// A parsed color range request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeRequest {
    /// Execution strategy.
    pub plan: PlanKind,
    /// Rule profile for bound computation.
    pub profile: ProfileKind,
    /// Histogram bin the query constrains.
    pub bin: u32,
    /// Lower pixel-fraction bound in `[0, 1]`.
    pub pct_min: f64,
    /// Upper pixel-fraction bound in `[0, 1]`.
    pub pct_max: f64,
}

/// A range query's reply payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeReply {
    /// Matching (or candidate) image ids.
    pub ids: Vec<u64>,
    /// Full BOUNDS computations the query executed.
    pub bounds_computed: u64,
    /// Edited images emitted without applying any rule (base shortcut).
    pub shortcut_emissions: u64,
}

/// A point lookup's reply payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupReply {
    /// 0 = stored conventionally, 1 = stored as an edit sequence.
    pub kind: u8,
    /// Raster width in pixels.
    pub width: u32,
    /// Raster height in pixels.
    pub height: u32,
    /// Total pixel count (histogram mass).
    pub pixels: u64,
    /// The base image this one derives from, for edited images.
    pub base: Option<u64>,
}

/// A stats reply payload (mirrors the storage engine's counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Conventionally stored images.
    pub binary_count: u64,
    /// Images stored as edit sequences.
    pub edited_count: u64,
    /// Blob bytes consumed by binary images.
    pub binary_bytes: u64,
    /// Catalog bytes consumed by encoded edit sequences.
    pub edited_bytes: u64,
    /// Raster cache hits since open.
    pub cache_hits: u64,
    /// Raster cache misses since open.
    pub cache_misses: u64,
}

/// The body of a request, by opcode.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// [`Opcode::Ping`]
    Ping,
    /// [`Opcode::Range`]
    Range(RangeRequest),
    /// [`Opcode::Knn`]
    Knn {
        /// Id of the stored image whose raster seeds the search.
        probe_id: u64,
        /// How many neighbours to return.
        k: u32,
    },
    /// [`Opcode::Lookup`]
    Lookup {
        /// Image id to look up.
        id: u64,
    },
    /// [`Opcode::Stats`]
    Stats,
}

impl RequestBody {
    /// The opcode this body is carried under.
    pub fn opcode(&self) -> Opcode {
        match self {
            RequestBody::Ping => Opcode::Ping,
            RequestBody::Range(_) => Opcode::Range,
            RequestBody::Knn { .. } => Opcode::Knn,
            RequestBody::Lookup { .. } => Opcode::Lookup,
            RequestBody::Stats => Opcode::Stats,
        }
    }
}

/// A fully parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Deadline in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Wire-propagated trace context.
    pub trace: Option<TraceContext>,
    /// The opcode-specific body.
    pub body: RequestBody,
}

// ── Byte-level helpers ─────────────────────────────────────────────────

/// A little cursor over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consumes and returns every remaining byte.
    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the structure was complete.
    Truncated,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Unknown plan / profile / status selector.
    BadSelector(&'static str, u8),
    /// Profile byte 1: the literal Table 1 profile, known and refused.
    UnservedProfile,
    /// The payload had bytes left over after the structure.
    TrailingBytes,
    /// A numeric field was out of its documented domain.
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::UnknownOpcode(b) => write!(f, "unknown opcode {b}"),
            DecodeError::BadSelector(what, b) => write!(f, "bad {what} selector {b}"),
            DecodeError::UnservedProfile => write!(
                f,
                "profile 1 (paper_table1) is not served: its bounds are unsound \
                 (PAPER.md caveat 2); only profile 0 (conservative) is"
            ),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
            DecodeError::BadValue(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ── Trace-context encode / decode ──────────────────────────────────────

/// Appends the trace-flags byte (and trace id when present).
/// `allow_sampled` distinguishes requests (which carry the sampling bit)
/// from responses (which only echo the id).
fn put_trace(out: &mut Vec<u8>, trace: Option<&TraceContext>, allow_sampled: bool) {
    match trace {
        None => out.push(0),
        Some(ctx) => {
            let mut flags = TRACE_FLAG_PRESENT;
            if allow_sampled && ctx.sampled {
                flags |= TRACE_FLAG_SAMPLED;
            }
            out.push(flags);
            put_u64(out, ctx.trace_id);
        }
    }
}

/// Reads the trace-flags byte (and trace id when present).
fn read_trace(
    r: &mut Reader<'_>,
    allow_sampled: bool,
) -> Result<Option<TraceContext>, DecodeError> {
    let flags = r.u8()?;
    let known = if allow_sampled {
        TRACE_FLAG_PRESENT | TRACE_FLAG_SAMPLED
    } else {
        TRACE_FLAG_PRESENT
    };
    if flags & !known != 0 {
        return Err(DecodeError::BadSelector("trace flags", flags));
    }
    if flags & TRACE_FLAG_PRESENT == 0 {
        if flags & TRACE_FLAG_SAMPLED != 0 {
            // Sampled-but-absent is contradictory; reject rather than guess.
            return Err(DecodeError::BadSelector("trace flags", flags));
        }
        return Ok(None);
    }
    Ok(Some(TraceContext {
        trace_id: r.u64()?,
        sampled: flags & TRACE_FLAG_SAMPLED != 0,
    }))
}

// ── Request encode / decode ────────────────────────────────────────────

/// Encodes a request payload (without the length prefix) for the given
/// negotiated protocol version.
pub fn encode_request(req: &Request, _version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(REQUEST_HEADER_LEN + 32);
    put_u64(&mut out, req.id);
    out.push(req.body.opcode().as_u8());
    put_u32(&mut out, req.deadline_ms);
    put_trace(&mut out, req.trace.as_ref(), true);
    match &req.body {
        RequestBody::Ping | RequestBody::Stats => {}
        RequestBody::Range(r) => {
            out.push(r.plan.as_u8());
            out.push(r.profile.as_u8());
            put_u32(&mut out, r.bin);
            put_f64(&mut out, r.pct_min);
            put_f64(&mut out, r.pct_max);
        }
        RequestBody::Knn { probe_id, k } => {
            put_u64(&mut out, *probe_id);
            put_u32(&mut out, *k);
        }
        RequestBody::Lookup { id } => {
            put_u64(&mut out, *id);
        }
    }
    out
}

/// Decodes a request payload under the given negotiated protocol version.
/// On failure the caller still learns the request id (when at least 8 bytes
/// arrived) so the error response can be correlated.
pub fn decode_request(payload: &[u8], _version: u16) -> Result<Request, (u64, DecodeError)> {
    let id = if payload.len() >= 8 {
        u64::from_le_bytes(payload[..8].try_into().unwrap())
    } else {
        0
    };
    decode_request_inner(payload).map_err(|e| (id, e))
}

fn decode_request_inner(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let opcode_byte = r.u8()?;
    let opcode = Opcode::from_u8(opcode_byte).ok_or(DecodeError::UnknownOpcode(opcode_byte))?;
    let deadline_ms = r.u32()?;
    let trace = read_trace(&mut r, true)?;
    let body = match opcode {
        Opcode::Ping => RequestBody::Ping,
        Opcode::Stats => RequestBody::Stats,
        Opcode::Range => {
            let plan_byte = r.u8()?;
            let plan =
                PlanKind::from_u8(plan_byte).ok_or(DecodeError::BadSelector("plan", plan_byte))?;
            let profile = match r.u8()? {
                0 => ProfileKind::Conservative,
                1 => return Err(DecodeError::UnservedProfile),
                b => return Err(DecodeError::BadSelector("profile", b)),
            };
            let bin = r.u32()?;
            let pct_min = r.f64()?;
            let pct_max = r.f64()?;
            let in_unit = |v: f64| (0.0..=1.0).contains(&v);
            if !in_unit(pct_min) || !in_unit(pct_max) || pct_min > pct_max {
                return Err(DecodeError::BadValue("percentage range"));
            }
            RequestBody::Range(RangeRequest {
                plan,
                profile,
                bin,
                pct_min,
                pct_max,
            })
        }
        Opcode::Knn => RequestBody::Knn {
            probe_id: r.u64()?,
            k: r.u32()?,
        },
        Opcode::Lookup => RequestBody::Lookup { id: r.u64()? },
    };
    r.finish()?;
    Ok(Request {
        id,
        deadline_ms,
        trace,
        body,
    })
}

// ── Response encode / decode ───────────────────────────────────────────

/// The body of a successful response, by opcode.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBody {
    /// [`Opcode::Ping`]
    Pong,
    /// [`Opcode::Range`]
    Range(RangeReply),
    /// [`Opcode::Knn`] — `(id, distance)` pairs ascending by distance.
    Knn(Vec<(u64, f64)>),
    /// [`Opcode::Lookup`]
    Lookup(LookupReply),
    /// [`Opcode::Stats`]
    Stats(StatsReply),
}

/// A parsed response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Status OK with an opcode-specific body.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Trace id the server recorded this request under; fetchable
        /// from the exposition server's `/traces/<id>` when kept.
        trace_id: Option<u64>,
        /// The decoded body.
        body: ReplyBody,
    },
    /// Any non-OK status with its UTF-8 message.
    Err {
        /// Echoed request id (0 when the request could not be parsed far
        /// enough to learn it).
        id: u64,
        /// Trace id the server recorded this request under.
        trace_id: Option<u64>,
        /// The structured error class.
        status: Status,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed trace id, whatever the status.
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            Response::Ok { trace_id, .. } | Response::Err { trace_id, .. } => *trace_id,
        }
    }
}

/// Encodes a success response payload (without the length prefix) for the
/// given negotiated protocol version, echoing `trace_id`.
pub fn encode_ok(id: u64, trace_id: Option<u64>, body: &ReplyBody, _version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(RESPONSE_HEADER_LEN + 32);
    put_u64(&mut out, id);
    out.push(Status::Ok.as_u8());
    let ctx = trace_id.map(|trace_id| TraceContext {
        trace_id,
        sampled: false,
    });
    put_trace(&mut out, ctx.as_ref(), false);
    match body {
        ReplyBody::Pong => {}
        ReplyBody::Range(r) => {
            put_u32(&mut out, r.ids.len() as u32);
            for &iid in &r.ids {
                put_u64(&mut out, iid);
            }
            put_u64(&mut out, r.bounds_computed);
            put_u64(&mut out, r.shortcut_emissions);
        }
        ReplyBody::Knn(pairs) => {
            put_u32(&mut out, pairs.len() as u32);
            for &(iid, d) in pairs {
                put_u64(&mut out, iid);
                put_f64(&mut out, d);
            }
        }
        ReplyBody::Lookup(l) => {
            out.push(l.kind);
            put_u32(&mut out, l.width);
            put_u32(&mut out, l.height);
            put_u64(&mut out, l.pixels);
            out.push(u8::from(l.base.is_some()));
            put_u64(&mut out, l.base.unwrap_or(0));
        }
        ReplyBody::Stats(s) => {
            for v in [
                s.binary_count,
                s.edited_count,
                s.binary_bytes,
                s.edited_bytes,
                s.cache_hits,
                s.cache_misses,
            ] {
                put_u64(&mut out, v);
            }
        }
    }
    out
}

/// Encodes an error response payload (without the length prefix) for the
/// given negotiated protocol version, echoing `trace_id`.
pub fn encode_err(
    id: u64,
    trace_id: Option<u64>,
    status: Status,
    message: &str,
    _version: u16,
) -> Vec<u8> {
    debug_assert_ne!(status, Status::Ok);
    let mut out = Vec::with_capacity(RESPONSE_HEADER_LEN + message.len());
    put_u64(&mut out, id);
    out.push(status.as_u8());
    let ctx = trace_id.map(|trace_id| TraceContext {
        trace_id,
        sampled: false,
    });
    put_trace(&mut out, ctx.as_ref(), false);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes a response payload under the given negotiated protocol version.
/// `opcode` disambiguates the OK body layout.
pub fn decode_response(
    payload: &[u8],
    opcode: Opcode,
    _version: u16,
) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let status_byte = r.u8()?;
    let status =
        Status::from_u8(status_byte).ok_or(DecodeError::BadSelector("status", status_byte))?;
    let trace_id = read_trace(&mut r, false)?.map(|ctx| ctx.trace_id);
    if status != Status::Ok {
        let message = String::from_utf8_lossy(r.rest()).into_owned();
        return Ok(Response::Err {
            id,
            trace_id,
            status,
            message,
        });
    }
    let body = match opcode {
        Opcode::Ping => ReplyBody::Pong,
        Opcode::Range => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                ids.push(r.u64()?);
            }
            ReplyBody::Range(RangeReply {
                ids,
                bounds_computed: r.u64()?,
                shortcut_emissions: r.u64()?,
            })
        }
        Opcode::Knn => {
            let n = r.u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let iid = r.u64()?;
                let d = r.f64()?;
                pairs.push((iid, d));
            }
            ReplyBody::Knn(pairs)
        }
        Opcode::Lookup => {
            let kind = r.u8()?;
            let width = r.u32()?;
            let height = r.u32()?;
            let pixels = r.u64()?;
            let has_base = r.u8()? != 0;
            let base_raw = r.u64()?;
            ReplyBody::Lookup(LookupReply {
                kind,
                width,
                height,
                pixels,
                base: has_base.then_some(base_raw),
            })
        }
        Opcode::Stats => ReplyBody::Stats(StatsReply {
            binary_count: r.u64()?,
            edited_count: r.u64()?,
            binary_bytes: r.u64()?,
            edited_bytes: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
        }),
    };
    r.finish()?;
    Ok(Response::Ok { id, trace_id, body })
}

// ── Framed stream I/O ──────────────────────────────────────────────────

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame, rejecting payloads above `max_len`.
///
/// # Errors
/// `InvalidData` for oversized frames, `UnexpectedEof` at clean stream end.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Client side of the handshake: sends magic + version, checks the reply.
/// Returns the version this connection speaks ([`PROTOCOL_VERSION`]).
pub fn client_handshake(stream: &mut (impl Read + Write)) -> std::io::Result<u16> {
    let version = PROTOCOL_VERSION;
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&version.to_le_bytes());
    stream.write_all(&hello)?;
    let mut reply = [0u8; 7];
    stream.read_exact(&mut reply)?;
    if reply[..4] != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "server did not answer with MMDB magic",
        ));
    }
    let server_version = u16::from_le_bytes(reply[4..6].try_into().unwrap());
    if reply[6] != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("server rejected protocol version {version} (it speaks {server_version})"),
        ));
    }
    Ok(version)
}

/// Server side of the handshake, as a decision: what to answer a client's
/// six hello bytes. `None` when they do not open with [`MAGIC`] — not our
/// protocol, so the connection closes without a reply (it could be HTTP or
/// garbage; echoing bytes at it helps nobody). Otherwise the seven reply
/// bytes to send, with the version the connection will speak (the client's)
/// or, for a version outside the supported range, `None`: the reply carries
/// the rejection byte and the connection closes once it is written.
pub fn answer_hello(hello: &[u8; 6]) -> Option<([u8; 7], Option<u16>)> {
    if hello[..4] != MAGIC {
        return None;
    }
    let client_version = u16::from_le_bytes([hello[4], hello[5]]);
    let ok = (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&client_version);
    let mut reply = [0u8; 7];
    reply[..4].copy_from_slice(&MAGIC);
    reply[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    reply[6] = u8::from(!ok);
    Some((reply, ok.then_some(client_version)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(body: RequestBody) {
        // No trace context.
        let req = Request {
            id: 42,
            deadline_ms: 250,
            trace: None,
            body,
        };
        let bytes = encode_request(&req, PROTOCOL_VERSION);
        let back = decode_request(&bytes, PROTOCOL_VERSION).unwrap();
        assert_eq!(back, req);

        // Traced + sampled.
        let traced = Request {
            trace: Some(TraceContext {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                sampled: true,
            }),
            ..req.clone()
        };
        let bytes = encode_request(&traced, PROTOCOL_VERSION);
        let back = decode_request(&bytes, PROTOCOL_VERSION).unwrap();
        assert_eq!(back, traced);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(RequestBody::Ping);
        roundtrip_request(RequestBody::Stats);
        roundtrip_request(RequestBody::Range(RangeRequest {
            plan: PlanKind::Indexed,
            profile: ProfileKind::Conservative,
            bin: 3,
            pct_min: 0.1,
            pct_max: 0.9,
        }));
        roundtrip_request(RequestBody::Knn { probe_id: 9, k: 5 });
        roundtrip_request(RequestBody::Lookup { id: 7 });
    }

    #[test]
    fn response_roundtrips() {
        let cases: Vec<(Opcode, ReplyBody)> = vec![
            (Opcode::Ping, ReplyBody::Pong),
            (
                Opcode::Range,
                ReplyBody::Range(RangeReply {
                    ids: vec![1, 5, 9],
                    bounds_computed: 12,
                    shortcut_emissions: 3,
                }),
            ),
            (Opcode::Knn, ReplyBody::Knn(vec![(4, 0.5), (2, 1.25)])),
            (
                Opcode::Lookup,
                ReplyBody::Lookup(LookupReply {
                    kind: 1,
                    width: 64,
                    height: 48,
                    pixels: 3072,
                    base: Some(3),
                }),
            ),
            (
                Opcode::Stats,
                ReplyBody::Stats(StatsReply {
                    binary_count: 2,
                    edited_count: 6,
                    binary_bytes: 4096,
                    edited_bytes: 128,
                    cache_hits: 10,
                    cache_misses: 1,
                }),
            ),
        ];
        for (opcode, body) in cases {
            // With a trace echo.
            let bytes = encode_ok(7, Some(0x1234), &body, PROTOCOL_VERSION);
            match decode_response(&bytes, opcode, PROTOCOL_VERSION).unwrap() {
                Response::Ok {
                    id,
                    trace_id,
                    body: back,
                } => {
                    assert_eq!(id, 7);
                    assert_eq!(trace_id, Some(0x1234));
                    assert_eq!(back, body);
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_response_roundtrips() {
        let bytes = encode_err(
            3,
            Some(0xFEED),
            Status::Overloaded,
            "queue full (depth 64)",
            PROTOCOL_VERSION,
        );
        match decode_response(&bytes, Opcode::Range, PROTOCOL_VERSION).unwrap() {
            Response::Err {
                id,
                trace_id,
                status,
                message,
            } => {
                assert_eq!(id, 3);
                assert_eq!(trace_id, Some(0xFEED));
                assert_eq!(status, Status::Overloaded);
                assert_eq!(message, "queue full (depth 64)");
            }
            other => panic!("expected Err, got {other:?}"),
        }
    }

    #[test]
    fn bad_trace_flags_are_rejected() {
        // Unknown flag bit.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(Opcode::Ping.as_u8());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.push(0x4);
        assert_eq!(
            decode_request(&payload, PROTOCOL_VERSION).unwrap_err().1,
            DecodeError::BadSelector("trace flags", 0x4)
        );
        // Sampled without a trace id is contradictory.
        let last = payload.len() - 1;
        payload[last] = 0x2;
        assert_eq!(
            decode_request(&payload, PROTOCOL_VERSION).unwrap_err().1,
            DecodeError::BadSelector("trace flags", 0x2)
        );
        // The sampled bit is request-only; responses reject it.
        let mut resp = Vec::new();
        resp.extend_from_slice(&1u64.to_le_bytes());
        resp.push(Status::Ok.as_u8());
        resp.push(0x3);
        resp.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(
            decode_response(&resp, Opcode::Ping, PROTOCOL_VERSION).unwrap_err(),
            DecodeError::BadSelector("trace flags", 0x3)
        );
    }

    #[test]
    fn truncated_and_malformed_payloads_are_rejected() {
        // Too short for even the id.
        assert_eq!(
            decode_request(&[1, 2, 3], PROTOCOL_VERSION).unwrap_err().1,
            DecodeError::Truncated
        );
        // Unknown opcode: id + opcode 99 + deadline.
        let mut bad = Vec::new();
        bad.extend_from_slice(&5u64.to_le_bytes());
        bad.push(99);
        bad.extend_from_slice(&0u32.to_le_bytes());
        let (id, err) = decode_request(&bad, PROTOCOL_VERSION).unwrap_err();
        assert_eq!(id, 5);
        assert_eq!(err, DecodeError::UnknownOpcode(99));
        // A range request cut off mid-f64.
        let ok = encode_request(
            &Request {
                id: 8,
                deadline_ms: 0,
                trace: None,
                body: RequestBody::Range(RangeRequest {
                    plan: PlanKind::Bwm,
                    profile: ProfileKind::Conservative,
                    bin: 1,
                    pct_min: 0.0,
                    pct_max: 1.0,
                }),
            },
            PROTOCOL_VERSION,
        );
        let (id, err) = decode_request(&ok[..ok.len() - 3], PROTOCOL_VERSION).unwrap_err();
        assert_eq!(id, 8);
        assert_eq!(err, DecodeError::Truncated);
        // Trailing garbage.
        let mut long = encode_request(
            &Request {
                id: 9,
                deadline_ms: 0,
                trace: None,
                body: RequestBody::Ping,
            },
            PROTOCOL_VERSION,
        );
        long.push(0xFF);
        assert_eq!(
            decode_request(&long, PROTOCOL_VERSION).unwrap_err().1,
            DecodeError::TrailingBytes
        );
        // NaN percentage (hand-built layout).
        let mut nan = Vec::new();
        nan.extend_from_slice(&1u64.to_le_bytes());
        nan.push(Opcode::Range.as_u8());
        nan.extend_from_slice(&0u32.to_le_bytes());
        nan.push(0); // trace flags: none
        nan.push(0);
        nan.push(0);
        nan.extend_from_slice(&0u32.to_le_bytes());
        nan.extend_from_slice(&f64::NAN.to_le_bytes());
        nan.extend_from_slice(&1.0f64.to_le_bytes());
        assert_eq!(
            decode_request(&nan, PROTOCOL_VERSION).unwrap_err().1,
            DecodeError::BadValue("percentage range")
        );
    }

    #[test]
    fn oversized_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let payload = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn handshake_accepts_matching_version() {
        // Use an in-memory duplex made of two vecs: simulate with a
        // loopback TcpStream-free pair via cursor composition.
        struct Duplex {
            input: std::io::Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Client hello captured…
        let mut client = Duplex {
            input: std::io::Cursor::new(Vec::new()),
            output: Vec::new(),
        };
        // (pre-load the expected server reply)
        let mut reply = Vec::new();
        reply.extend_from_slice(&MAGIC);
        reply.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        reply.push(0);
        client.input = std::io::Cursor::new(reply);
        assert_eq!(client_handshake(&mut client).unwrap(), PROTOCOL_VERSION);

        // …and fed to the server side: the reply it answers with is the
        // one the client was handed above.
        let hello: [u8; 6] = client.output[..].try_into().unwrap();
        let (answer, version) = answer_hello(&hello).unwrap();
        assert_eq!(version, Some(PROTOCOL_VERSION));
        assert_eq!(answer[..], client.input.get_ref()[..]);

        // Any other version is refused — the retired v1 dialect included.
        for version in [1u16, 999] {
            let mut bad_hello = [0u8; 6];
            bad_hello[..4].copy_from_slice(&MAGIC);
            bad_hello[4..].copy_from_slice(&version.to_le_bytes());
            let (answer, accepted) = answer_hello(&bad_hello).unwrap();
            assert_eq!(accepted, None);
            assert_eq!(answer[6], 1, "v{version}: rejection byte set");
        }

        // Anything that is not MMDB gets no reply at all.
        assert_eq!(answer_hello(b"GET / "), None);
    }
}
