//! The load client: one connection speaking the public wire codec
//! (`protocol::{client_handshake, encode_request, write_frame, read_frame,
//! decode_response}`), with a sliding window of requests in flight.
//!
//! A window of one measures two thread wake-ups per request, not the
//! server; with several requests in flight the reactor always finds the next
//! frame already in its socket buffer. Each request is timed from its own
//! send to its own reply.

use mmdbms::server::protocol::{
    client_handshake, decode_response, encode_request, read_frame, write_frame, Opcode,
    RangeRequest, ReplyBody, Request, RequestBody, Response, DEFAULT_MAX_FRAME_LEN,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply later than this is a lost operation and ends the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    stream: TcpStream,
    version: u16,
    frame: Vec<u8>,
    /// Bytes received and not yet consumed: `inbuf[consumed..]`.
    inbuf: Vec<u8>,
    consumed: usize,
    next_id: u64,
}

/// What one reply was: the ids of an OK range reply, or why it counts as a
/// failed operation.
pub type Reply = Result<Vec<u64>, String>;

impl Conn {
    /// Connects and shakes hands. The socket blocks, as a client of
    /// `mmdbctl query --connect` does: a load thread that spins on a
    /// non-blocking socket keeps a second core busy for nothing the system
    /// does, and on a two-core guest that is every core there is.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let version = client_handshake(&mut stream)?;
        Ok(Conn {
            stream,
            version,
            frame: Vec::with_capacity(64),
            inbuf: Vec::with_capacity(64 << 10),
            consumed: 0,
            next_id: 1,
        })
    }

    pub fn version(&self) -> u16 {
        self.version
    }

    /// Encodes and sends one request as a single write; returns its id.
    pub fn send(&mut self, body: RequestBody) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request(
            &Request {
                id,
                deadline_ms: 0,
                trace: None,
                body,
            },
            self.version,
        );
        self.frame.clear();
        write_frame(&mut self.frame, &payload)?;
        self.stream.write_all(&self.frame)?;
        Ok(id)
    }

    /// Reads and decodes the next response frame.
    pub fn recv(&mut self, opcode: Opcode) -> io::Result<Response> {
        loop {
            let pending = &self.inbuf[self.consumed..];
            if pending.len() >= 4 {
                let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
                if pending.len() >= 4 + len {
                    let mut cursor = pending;
                    let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)?;
                    self.consumed += 4 + len;
                    return decode_response(&payload, opcode, self.version)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                }
            }
            if self.consumed > 0 {
                self.inbuf.drain(..self.consumed);
                self.consumed = 0;
            }
            let filled = self.inbuf.len();
            self.inbuf.resize(filled + (16 << 10), 0);
            let got = match self.stream.read(&mut self.inbuf[filled..])? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => n,
            };
            self.inbuf.truncate(filled + got);
        }
    }

    /// One range request at window 1: the reply and its round-trip time.
    pub fn range(&mut self, request: RangeRequest) -> io::Result<(Reply, Duration)> {
        let start = Instant::now();
        let id = self.send(RequestBody::Range(request))?;
        let response = self.recv(Opcode::Range)?;
        let rtt = start.elapsed();
        Ok((range_reply(response, id), rtt))
    }

    /// One ping round trip.
    pub fn ping(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        let id = self.send(RequestBody::Ping)?;
        match self.recv(Opcode::Ping)? {
            Response::Ok { id: got, .. } if got == id => Ok(start.elapsed()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ping answered with {other:?}"),
            )),
        }
    }
}

fn range_reply(response: Response, expect_id: u64) -> Reply {
    match response {
        Response::Ok {
            id,
            body: ReplyBody::Range(reply),
            ..
        } if id == expect_id => Ok(reply.ids),
        Response::Ok { id, .. } => Err(format!(
            "reply id {id} does not answer range request {expect_id}"
        )),
        Response::Err {
            status, message, ..
        } => Err(format!("{}: {message}", status.name())),
    }
}

/// One round of windowed load.
pub struct Round {
    /// Send→reply time of every request, in nanoseconds, in reply order.
    pub latencies_ns: Vec<u64>,
    /// First send to last reply.
    pub wall: Duration,
    /// Refused, errored or unmatched replies.
    pub failed: u64,
    /// `(request index, reply ids)` of every `sample_every`-th request, for
    /// the caller to verify once the clock has stopped.
    pub samples: Vec<(usize, Vec<u64>)>,
}

/// Sends `requests` keeping `window` in flight: read reply *i*, send request
/// *i + window*. Replies are matched by id, so a server with an executor
/// pool may answer out of order.
pub fn run_window(
    conn: &mut Conn,
    requests: &[RangeRequest],
    window: usize,
    sample_every: usize,
) -> io::Result<Round> {
    let n = requests.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut latencies_ns = Vec::with_capacity(n);
    let mut samples = Vec::with_capacity(n / sample_every + 1);
    let mut failed = 0;
    let start = Instant::now();
    let first_id = conn.next_id;
    let mut next = 0;
    while next < n.min(window) {
        sent_at[next] = Some(Instant::now());
        conn.send(RequestBody::Range(requests[next]))?;
        next += 1;
    }
    for _ in 0..n {
        let response = conn.recv(Opcode::Range)?;
        let now = Instant::now();
        let id = match &response {
            Response::Ok { id, .. } | Response::Err { id, .. } => *id,
        };
        let index = id.wrapping_sub(first_id) as usize;
        match sent_at.get_mut(index).and_then(Option::take) {
            Some(sent) => latencies_ns.push((now - sent).as_nanos() as u64),
            None => failed += 1,
        }
        match range_reply(response, id) {
            Ok(ids) if index.is_multiple_of(sample_every) => samples.push((index, ids)),
            Ok(_) => {}
            Err(_) => failed += 1,
        }
        if next < n {
            sent_at[next] = Some(Instant::now());
            conn.send(RequestBody::Range(requests[next]))?;
            next += 1;
        }
    }
    Ok(Round {
        latencies_ns,
        wall: start.elapsed(),
        failed,
        samples,
    })
}
