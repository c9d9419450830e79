//! A blocking client for the query service. One request in flight at a
//! time per client; spin up one client per thread for concurrency (that is
//! exactly what the load generator does).

use crate::protocol::{
    client_handshake, decode_response, encode_request, read_frame, write_frame, LookupReply,
    RangeReply, RangeRequest, ReplyBody, Request, RequestBody, Response, StatsReply, Status,
    TraceContext, DEFAULT_MAX_FRAME_LEN,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or timeout).
    Io(std::io::Error),
    /// The server broke the protocol (bad frame, wrong id, bad handshake).
    Protocol(String),
    /// The server answered with a structured error status.
    Server {
        /// The structured error class (`OVERLOADED`, `DEADLINE_EXCEEDED`, …).
        status: Status,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { status, message } => {
                write!(f, "server error {}: {message}", status.name())
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The structured server status, when this is a server-side error.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Server { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// A connected, handshaken client.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Negotiated protocol version for this connection.
    version: u16,
    /// Trace id echoed by the server on the most recent call (success or
    /// structured error); `None` before any call or when the server traced
    /// nothing.
    last_trace_id: Option<u64>,
}

impl Client {
    /// Connects, performs the version handshake, and returns a ready client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let version = client_handshake(&mut stream)
            .map_err(|e| ClientError::Protocol(format!("handshake failed: {e}")))?;
        Ok(Client {
            stream,
            next_id: 1,
            version,
            last_trace_id: None,
        })
    }

    /// The protocol version negotiated at connect time.
    pub fn protocol_version(&self) -> u16 {
        self.version
    }

    /// The trace id the server echoed on the most recent call; fetch the
    /// matching span tree from the exposition server's `/traces/<id>` when
    /// the tail sampler kept it.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace_id
    }

    fn call(&mut self, body: RequestBody, deadline_ms: u32) -> Result<ReplyBody, ClientError> {
        self.call_traced(body, deadline_ms, None)
    }

    fn call_traced(
        &mut self,
        body: RequestBody,
        deadline_ms: u32,
        trace: Option<TraceContext>,
    ) -> Result<ReplyBody, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let opcode = body.opcode();
        let request = Request {
            id,
            deadline_ms,
            trace,
            body,
        };
        write_frame(&mut self.stream, &encode_request(&request, self.version))?;
        let payload = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?;
        let response = decode_response(&payload, opcode, self.version)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.last_trace_id = response.trace_id();
        match response {
            Response::Ok { id: rid, body, .. } => {
                if rid != id {
                    return Err(ClientError::Protocol(format!(
                        "response id {rid} does not match request id {id}"
                    )));
                }
                Ok(body)
            }
            Response::Err {
                id: rid,
                status,
                message,
                ..
            } => {
                // id 0 is the server's "could not even parse the id" marker.
                if rid != id && rid != 0 {
                    return Err(ClientError::Protocol(format!(
                        "error response id {rid} does not match request id {id}"
                    )));
                }
                Err(ClientError::Server { status, message })
            }
        }
    }

    /// Liveness probe (answered inline by the server, even under overload).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(RequestBody::Ping, 0)? {
            ReplyBody::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Color range query without a deadline.
    pub fn range(&mut self, req: RangeRequest) -> Result<RangeReply, ClientError> {
        self.range_with_deadline(req, 0)
    }

    /// Color range query with a deadline in milliseconds (0 = none); the
    /// server refuses to execute it once the deadline has passed in queue.
    pub fn range_with_deadline(
        &mut self,
        req: RangeRequest,
        deadline_ms: u32,
    ) -> Result<RangeReply, ClientError> {
        match self.call(RequestBody::Range(req), deadline_ms)? {
            ReplyBody::Range(r) => Ok(r),
            other => Err(ClientError::Protocol(format!(
                "expected range reply, got {other:?}"
            ))),
        }
    }

    /// Color range query carrying an explicit wire trace context. Returns
    /// the reply plus the trace id the server recorded the request under
    /// (normally the one sent). Mark the context `sampled` to force the
    /// server's tail sampler to keep the trace regardless of latency.
    pub fn range_traced(
        &mut self,
        req: RangeRequest,
        deadline_ms: u32,
        trace: TraceContext,
    ) -> Result<(RangeReply, Option<u64>), ClientError> {
        match self.call_traced(RequestBody::Range(req), deadline_ms, Some(trace))? {
            ReplyBody::Range(r) => Ok((r, self.last_trace_id)),
            other => Err(ClientError::Protocol(format!(
                "expected range reply, got {other:?}"
            ))),
        }
    }

    /// k-NN seeded by a stored image.
    pub fn knn(&mut self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, ClientError> {
        match self.call(RequestBody::Knn { probe_id, k }, 0)? {
            ReplyBody::Knn(pairs) => Ok(pairs),
            other => Err(ClientError::Protocol(format!(
                "expected knn reply, got {other:?}"
            ))),
        }
    }

    /// Point lookup of one image's catalog record.
    pub fn lookup(&mut self, id: u64) -> Result<LookupReply, ClientError> {
        match self.call(RequestBody::Lookup { id }, 0)? {
            ReplyBody::Lookup(l) => Ok(l),
            other => Err(ClientError::Protocol(format!(
                "expected lookup reply, got {other:?}"
            ))),
        }
    }

    /// Storage statistics.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(RequestBody::Stats, 0)? {
            ReplyBody::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }
}
