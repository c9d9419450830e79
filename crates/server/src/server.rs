//! The query server: a readiness-based event loop (nonblocking `std::net`
//! plus `poll(2)`, dependency-free) multiplexing every connection onto one
//! reactor thread, with request execution either inline on the reactor
//! (`workers == 0`, optimal at low core counts) or handed to a
//! core-count-sized executor pool fed through one bounded **admission
//! queue** ([`BoundedQueue`]).
//!
//! ## Request lifecycle
//!
//! 1. The reactor accepts connections, runs the handshake as a
//!    state machine over the connection's input buffer, and parses frames
//!    as bytes arrive. Malformed input is answered with a structured
//!    `BAD_REQUEST` (and, for unframeable streams — oversized length
//!    prefixes — a clean disconnect after the error is flushed).
//! 2. `Ping` is answered directly by the reactor, so liveness probes
//!    succeed even when the executor is saturated.
//! 3. Everything else is pushed onto the admission queue. A full queue
//!    means the request is *refused immediately* with `OVERLOADED` —
//!    admission control instead of an unbounded backlog. The server knows
//!    nothing of the backend's partitioning: a request fans out over the
//!    shards inside the backend call, wherever it was queued. With
//!    `workers == 0` the queue is skipped and the request executes inline
//!    on the reactor.
//! 4. An executor thread dequeues the job. If its deadline expired while
//!    queued it is answered `DEADLINE_EXCEEDED` without executing;
//!    otherwise the backend runs it and the framed reply is returned to
//!    the reactor over a completion channel, which appends it to the
//!    connection's output buffer and flushes it under `POLLOUT`
//!    readiness (request ids correlate pipelined responses).
//!
//! ## Graceful shutdown
//!
//! [`QueryServer::shutdown`] raises `stop`, wakes the reactor and joins it;
//! the reactor runs the drain itself. It stops accepting at once, keeps
//! reading until its connections have been quiet for [`READ_QUIESCE_IDLE`]
//! (bytes already in flight are still admitted) or until
//! [`DRAIN_BACKSTOP`] after `stop`, then closes the admission queue so the
//! executor drains the backlog and exits. The reactor returns once every
//! executor has dropped its completion sender and every reply is flushed
//! (or [`DRAIN_FLUSH_GRACE`] after that). No accepted request is dropped.

use crate::backend::QueryBackend;
use crate::protocol::{
    answer_hello, decode_request, encode_err, encode_ok, Opcode, PlanKind, ReplyBody, Request,
    RequestBody, Status, TraceContext, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::queue::{BoundedQueue, PushError};
use mmdb_telemetry::{
    counter, gauge, histogram, keep_reason, EventKind, KeepReason, QueryTrace, StoredTrace,
};
// Stop-flag atomics (like the admission queue's lock, in `queue.rs`) go
// through the mmdb-conc facade so the shutdown handshake and queue drain
// can be exercised under the model-checking scheduler; `mpsc` and the
// socket plumbing stay on std (they guard OS-level I/O paths the model
// never drives).
use mmdb_conc::sync::atomic::{AtomicBool, Ordering};
use mmdb_telemetry::{Counter, Histogram};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Handshake window: a connection that has not completed the 6-byte hello
/// within this long is dropped (swept once per reactor pass, so a peer that
/// never sends a byte is dropped too).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Reactor park time when nothing is ready (also the resolution of the
/// handshake-window sweep). Completions and shutdown wake it early via the
/// wake socket.
const POLL_TIMEOUT_MS: i32 = 250;

/// Soft cap on a connection's pending (unsent) output bytes; reads from
/// the connection pause above it so a slow reader cannot balloon memory.
const OUTBUF_SOFT_CAP: usize = 4 << 20;

/// How long the reactor keeps flushing response buffers after the executor
/// has drained during shutdown.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(10);

/// During shutdown, reads stop once every connection has been quiet this
/// long — bytes already in flight when `stop` was raised still arrive and
/// are admitted (the blocking server behaved the same way: readers noticed
/// `stop` only at a quiet read timeout of this length).
const READ_QUIESCE_IDLE: Duration = Duration::from_millis(100);

/// During shutdown, the admission queue closes this long after `stop` even
/// if the connections never go quiet; frames read after it are refused.
const DRAIN_BACKSTOP: Duration = Duration::from_secs(10);

/// Tuning knobs for [`QueryServer::bind`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Executor threads running requests. `0` executes requests inline on
    /// the reactor's event loop — no queue hand-off, no context switch per
    /// request — which is the fastest configuration on 1–2 core machines
    /// (and the default there). With `workers >= 1` requests flow through
    /// the bounded admission queue to a fixed pool.
    pub workers: usize,
    /// Admission bound: the total number of requests that may wait for an
    /// executor thread; requests beyond it are refused with `OVERLOADED`
    /// (min 1). Ignored when `workers == 0`.
    pub queue_depth: usize,
    /// Trace-keep threshold (default 100 ms): a request's trace is kept
    /// when it ended in an error, was head-sampled by the client, or took at
    /// least this long end to end; a fast, unsampled, successful request is
    /// counted in `mmdb_trace_dropped_total` and never described. Zero
    /// keeps every trace, with the backend's stage tree.
    pub trace_keep: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(0, |n| {
                let n = n.get();
                if n <= 2 {
                    0
                } else {
                    n.clamp(2, 8)
                }
            }),
            queue_depth: 64,
            trace_keep: Duration::from_millis(100),
        }
    }
}

/// Counters reported by [`QueryServer::shutdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Requests still queued when the drain began (all of them completed
    /// before shutdown returned).
    pub queued_at_stop: usize,
}

/// One queued unit of work. `Ping` never becomes a job.
struct Job {
    request: Request,
    accepted_at: Instant,
    /// Reactor connection slot + generation the reply routes back to.
    conn: usize,
    generation: u64,
}

// ── poll(2) readiness ──────────────────────────────────────────────────

#[allow(unsafe_code)]
mod readiness {
    //! The one readiness syscall, declared directly (the same pattern as
    //! the `signal` declaration in `shutdown.rs`) so the workspace stays
    //! free of a libc crate dependency.

    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// Readable, or in an error/hang-up state a read will surface.
        pub fn readable(&self) -> bool {
            self.revents & !POLLOUT != 0
        }

        pub fn writable(&self) -> bool {
            self.revents & POLLOUT != 0
        }
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux; the small counts the
        // server passes are representable on every unix ABI.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    /// Blocks until a registered fd is ready or `timeout_ms` passes.
    /// Errors (EINTR) are reported as "nothing ready"; the caller's loop
    /// re-polls.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records for the duration of the call, and
        // `poll` writes only within it (`revents` fields).
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        if rc < 0 {
            for fd in fds {
                fd.revents = 0;
            }
        }
    }
}

// ── Connection state machine ───────────────────────────────────────────

/// One multiplexed connection, owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Monotonic id guarding completion delivery across slot reuse.
    generation: u64,
    /// The hello was answered with [`PROTOCOL_VERSION`] (the only one
    /// accepted); frames are parsed only after it.
    hello_done: bool,
    opened: Instant,
    /// Accumulated unparsed input; `consumed` is the parse offset.
    inbuf: Vec<u8>,
    consumed: usize,
    /// Pending output; `sent` is the flush offset.
    outbuf: Vec<u8>,
    sent: usize,
    /// Jobs handed to the executor whose replies have not yet been
    /// delivered to `outbuf`.
    inflight: usize,
    /// No more input will be read (EOF, unframeable stream, or rejected
    /// handshake); the connection closes once `outbuf` and `inflight`
    /// drain.
    read_closed: bool,
    /// Tear down now, discarding any pending output.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.sent
    }

    /// Appends one framed reply (length prefix + payload) to the outbox.
    fn push_reply(&mut self, payload: &[u8]) {
        self.outbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.outbuf.extend_from_slice(payload);
    }

    /// Appends one framed error reply.
    fn push_err(&mut self, id: u64, trace_id: Option<u64>, status: Status, msg: &str) {
        self.push_reply(&encode_err(id, trace_id, status, msg, PROTOCOL_VERSION));
    }

    /// Writes pending output until drained or `WouldBlock`. Marks the
    /// connection dead on write errors.
    fn flush(&mut self) {
        while self.sent < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.sent == self.outbuf.len() {
            self.outbuf.clear();
            self.sent = 0;
        } else if self.sent > (64 << 10) {
            self.outbuf.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Reads until `WouldBlock`/EOF into the input buffer. Returns whether
    /// any bytes arrived.
    fn fill(&mut self, scratch: &mut [u8]) -> bool {
        let mut any = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    any = true;
                    if self.inbuf.len() - self.consumed >= OUTBUF_SOFT_CAP {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        any
    }

    /// Drops the parsed prefix of the input buffer.
    fn compact(&mut self) {
        if self.consumed == self.inbuf.len() {
            self.inbuf.clear();
            self.consumed = 0;
        } else if self.consumed > (64 << 10) {
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

/// A framed reply travelling back from the executor to the reactor.
struct Completion {
    conn: usize,
    generation: u64,
    /// Reply payload (unframed; the reactor adds the length prefix).
    payload: Vec<u8>,
}

/// A running query server; [`QueryServer::shutdown`] (or drop) drains it.
pub struct QueryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// `None` in inline mode (`workers == 0`).
    queue: Option<Arc<BoundedQueue<Job>>>,
    /// Write end of the reactor wake socket.
    wake_tx: UnixStream,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor (and, with `config.workers >= 1`, the executor pool).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn QueryBackend>,
        config: ServerConfig,
    ) -> std::io::Result<QueryServer> {
        register_metrics();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        // Wake socket pair: `poll` watches the read end; executor threads
        // (and shutdown) nudge the reactor out of it by writing a byte.
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();

        let queue = (config.workers > 0).then(|| Arc::new(BoundedQueue::new(config.queue_depth)));
        let workers = queue
            .as_ref()
            .map(|queue| {
                (0..config.workers)
                    .map(|i| {
                        let queue = Arc::clone(queue);
                        let backend = Arc::clone(&backend);
                        let completions = completion_tx.clone();
                        let wake = wake_tx.try_clone()?;
                        let trace_keep = config.trace_keep;
                        std::thread::Builder::new()
                            .name(format!("mmdb-server-worker-{i}"))
                            .spawn(move || {
                                worker_loop(
                                    &queue,
                                    backend.as_ref(),
                                    trace_keep,
                                    &completions,
                                    &wake,
                                );
                            })
                    })
                    .collect::<std::io::Result<Vec<_>>>()
            })
            .transpose()?
            .unwrap_or_default();
        // Only the executors hold senders now, so the reactor sees the
        // channel disconnect once the last one exits (at once inline).
        drop(completion_tx);

        let reactor = {
            let stop = Arc::clone(&stop);
            let queue = queue.clone();
            std::thread::Builder::new()
                .name("mmdb-server-reactor".into())
                .spawn(move || {
                    Reactor {
                        listener,
                        backend,
                        config,
                        queue,
                        stop,
                        completion_rx,
                        wake_rx,
                        conns: Vec::new(),
                        free: Vec::new(),
                        next_generation: 0,
                    }
                    .run();
                })?
        };

        Ok(QueryServer {
            addr: local,
            stop,
            queue,
            wake_tx,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently waiting in the admission queue (always 0 in
    /// inline mode).
    pub fn queue_len(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.len())
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, close.
    pub fn shutdown(mut self) -> DrainStats {
        self.stop_and_drain()
    }

    fn stop_and_drain(&mut self) -> DrainStats {
        let Some(reactor) = self.reactor.take() else {
            return DrainStats::default();
        };
        let queued_at_stop = self.queue_len();
        if mmdb_telemetry::instrumentation_enabled() {
            mmdb_telemetry::recorder().record(
                EventKind::ServerDrain,
                "phase=begin",
                &[("queued", queued_at_stop as u64)],
            );
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.wake_tx).write(&[1]);
        // The reactor runs the drain (see the module doc) and returns once
        // every reply is delivered; the executors have exited by then.
        let _ = reactor.join();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A reactor-side reading taken before the last pop must not outlive
        // the queue it described.
        gauge!("mmdb_server_queue_depth").set(0);
        if mmdb_telemetry::instrumentation_enabled() {
            mmdb_telemetry::recorder().record(EventKind::ServerDrain, "phase=complete", &[]);
        }
        DrainStats { queued_at_stop }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

// ── Metrics ────────────────────────────────────────────────────────────

/// Eagerly registers every `mmdb_server_*` series so exposition shows the
/// full schema from process start.
pub fn register_metrics() {
    // Builds the whole per-opcode table.
    let _ = series(Opcode::Ping);
    let _ = counter!("mmdb_server_connections_total");
    let _ = counter!("mmdb_server_overloaded_total");
    let _ = counter!("mmdb_server_deadline_exceeded_total");
    let _ = counter!("mmdb_server_malformed_total");
    let _ = counter!("mmdb_server_backend_panics_total");
    let _ = gauge!("mmdb_server_queue_depth");
    let _ = histogram!("mmdb_server_queue_wait_seconds");
    let _ = counter!("mmdb_trace_dropped_total");
    let _ = gauge!("mmdb_trace_store_entries");
    for reason in [
        KeepReason::Forced,
        KeepReason::Sampled,
        KeepReason::Error,
        KeepReason::Slow,
    ] {
        let _ = mmdb_telemetry::global().counter(&format!(
            "mmdb_trace_kept_total{{reason=\"{}\"}}",
            reason.as_str()
        ));
    }
}

/// What one opcode reports into: cached registry handles, so a request
/// formats no series name.
struct OpcodeSeries {
    requests: Arc<Counter>,
    /// Non-OK responses; over `requests` it is the error ratio an
    /// error-budget burn rate is computed from.
    errors: Arc<Counter>,
    /// Full request latency from admission.
    latency: Arc<Histogram>,
    /// Pure backend-execution time, excluding queue wait — together with
    /// `mmdb_server_queue_wait_seconds` this decomposes request latency, so
    /// "slow because queued" and "slow because BOUNDS" are separable from
    /// metrics alone (traces give the per-request version of the same
    /// split).
    execute: Arc<Histogram>,
}

/// The per-opcode table of server series, registered on first use.
fn series(op: Opcode) -> &'static OpcodeSeries {
    static TABLE: OnceLock<[OpcodeSeries; 5]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let g = mmdb_telemetry::global();
        // Entry `i` is the opcode whose wire byte is `i + 1`.
        std::array::from_fn(|i| {
            let op = Opcode::from_u8(i as u8 + 1)
                .expect("opcodes are bytes 1..=5")
                .name();
            OpcodeSeries {
                requests: g.counter(&format!(r#"mmdb_server_requests_total{{opcode="{op}"}}"#)),
                errors: g.counter(&format!(r#"mmdb_server_errors_total{{opcode="{op}"}}"#)),
                latency: g.histogram(&format!(
                    r#"mmdb_server_request_latency_seconds{{opcode="{op}"}}"#
                )),
                execute: g.histogram(&format!(r#"mmdb_server_execute_seconds{{opcode="{op}"}}"#)),
            }
        })
    });
    &table[usize::from(op.as_u8() - 1)]
}

/// Records refused (never-executed) range demand. The executed path records
/// from the query executor itself; this keeps the admission path's refusals
/// — demand the backend never saw — counted without double-counting
/// completed queries. The wire bin is unvalidated here; the demand counter
/// clamps it.
fn record_refused_demand(body: &RequestBody) {
    if let RequestBody::Range(req) = body {
        let plan = match req.plan {
            PlanKind::Instantiate => 0,
            PlanKind::Rbm => 1,
            PlanKind::Bwm => 2,
            PlanKind::Indexed => 3,
        };
        mmdb_telemetry::record_range_demand(req.bin, plan);
    }
}

// ── The reactor ────────────────────────────────────────────────────────

struct Reactor {
    listener: TcpListener,
    backend: Arc<dyn QueryBackend>,
    config: ServerConfig,
    /// `None` in inline mode (`workers == 0`).
    queue: Option<Arc<BoundedQueue<Job>>>,
    stop: Arc<AtomicBool>,
    completion_rx: mpsc::Receiver<Completion>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
}

impl Drop for Reactor {
    /// However the loop ends, the executors can finish and be joined.
    fn drop(&mut self) {
        if let Some(queue) = &self.queue {
            queue.close();
        }
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut scratch = vec![0u8; 64 << 10];
        // The drain (see the module doc). After `stop`, reads continue until
        // the connections have been quiet for `READ_QUIESCE_IDLE`: bytes
        // already in flight at stop — e.g. a Nagle-delayed frame tail —
        // still land and are admitted, like the blocking server whose
        // readers noticed `stop` only at a quiet read timeout.
        let mut last_read = Instant::now();
        let mut quiesced = false;
        let mut stopped_at: Option<Instant> = None;
        let mut admission_closed = false;
        let mut flush_deadline: Option<Instant> = None;

        loop {
            let stopping = self.stop.load(Ordering::SeqCst);

            // Deliver executor completions into connection outboxes. The
            // channel reports `Disconnected` once every executor has exited
            // and its last reply is delivered — from the start in inline
            // mode.
            let executors_done = loop {
                match self.completion_rx.try_recv() {
                    Ok(c) => self.deliver(c),
                    Err(mpsc::TryRecvError::Empty) => break false,
                    Err(mpsc::TryRecvError::Disconnected) => break true,
                }
            };

            // Readiness: listener (while accepting), wake socket, and every
            // connection — POLLIN while reading is allowed, POLLOUT while
            // output is pending.
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            fds.push(readiness::PollFd::new(
                self.listener.as_raw_fd(),
                if stopping { 0 } else { readiness::POLLIN },
            ));
            fds.push(readiness::PollFd::new(
                self.wake_rx.as_raw_fd(),
                readiness::POLLIN,
            ));
            let mut fd_slots = Vec::with_capacity(self.conns.len());
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0;
                let backpressured = conn.pending_out() >= OUTBUF_SOFT_CAP;
                if !quiesced && !conn.read_closed && !backpressured {
                    events |= readiness::POLLIN;
                }
                if conn.pending_out() > 0 {
                    events |= readiness::POLLOUT;
                }
                fds.push(readiness::PollFd::new(conn.stream.as_raw_fd(), events));
                fd_slots.push(slot);
            }
            let timeout = if stopping { 20 } else { POLL_TIMEOUT_MS };
            readiness::wait(&mut fds, timeout);

            // Drain wake bytes (their only job was ending the poll).
            if fds[1].readable() {
                while matches!((&self.wake_rx).read(&mut scratch[..64]), Ok(n) if n > 0) {}
            }

            if fds[0].readable() && !stopping {
                self.accept_ready();
            }

            for (i, slot) in fd_slots.iter().copied().enumerate() {
                let fd = &fds[i + 2];
                if fd.writable() {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.flush();
                    }
                }
                if fd.readable() && !quiesced && self.read_ready(slot, &mut scratch) {
                    last_read = Instant::now();
                }
            }

            if stopping {
                quiesced |= last_read.elapsed() >= READ_QUIESCE_IDLE;
                let stopped_at = *stopped_at.get_or_insert_with(Instant::now);
                if !admission_closed && (quiesced || stopped_at.elapsed() >= DRAIN_BACKSTOP) {
                    // The executors drain the backlog and exit; in pool mode
                    // a frame read from now on is refused.
                    admission_closed = true;
                    if let Some(queue) = &self.queue {
                        queue.close();
                    }
                }
            }

            self.reap();

            // Every completion is delivered: exit once every reply is
            // flushed, or the grace period expires.
            if admission_closed && executors_done {
                let deadline =
                    *flush_deadline.get_or_insert_with(|| Instant::now() + DRAIN_FLUSH_GRACE);
                let unflushed = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| !c.dead && c.pending_out() > 0);
                if !unflushed || Instant::now() >= deadline {
                    break;
                }
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    counter!("mmdb_server_connections_total").inc();
                    if mmdb_telemetry::instrumentation_enabled() {
                        mmdb_telemetry::recorder().record(
                            EventKind::ServerConnAccepted,
                            format!("peer={peer}"),
                            &[],
                        );
                    }
                    self.next_generation += 1;
                    let conn = Conn {
                        stream,
                        generation: self.next_generation,
                        hello_done: false,
                        opened: Instant::now(),
                        inbuf: Vec::new(),
                        consumed: 0,
                        outbuf: Vec::new(),
                        sent: 0,
                        inflight: 0,
                        read_closed: false,
                        dead: false,
                    };
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Reads newly arrived bytes on `slot` and advances its handshake/frame
    /// state machine.
    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) -> bool {
        let Some(mut conn) = self.conns[slot].take() else {
            return false;
        };
        let any = conn.fill(scratch);
        self.advance(&mut conn, slot);
        conn.compact();
        conn.flush();
        self.conns[slot] = Some(conn);
        any
    }

    /// Parses everything parseable in `conn.inbuf`.
    fn advance(&mut self, conn: &mut Conn, slot: usize) {
        if !conn.hello_done && !self.handshake(conn) {
            return;
        }
        while !conn.read_closed && !conn.dead {
            let avail = &conn.inbuf[conn.consumed..];
            if avail.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked"));
            if len > DEFAULT_MAX_FRAME_LEN {
                // The stream can no longer be framed — answer and disconnect
                // once the error is flushed.
                counter!("mmdb_server_malformed_total").inc();
                let msg = format!("frame length {len} exceeds maximum {DEFAULT_MAX_FRAME_LEN}");
                conn.push_err(0, None, Status::BadRequest, &msg);
                conn.read_closed = true;
                break;
            }
            let end = 4 + len as usize;
            if avail.len() < end {
                break;
            }
            let payload = conn.inbuf[conn.consumed + 4..conn.consumed + end].to_vec();
            conn.consumed += end;
            self.process_frame(conn, slot, &payload);
        }
    }

    /// Runs the handshake state machine; returns whether the connection is
    /// past it (i.e. frame parsing may proceed).
    fn handshake(&mut self, conn: &mut Conn) -> bool {
        if conn.inbuf.len() < 6 {
            // A peer that hung up mid-hello; one that merely stalls is
            // dropped by `reap` when the handshake window closes.
            conn.dead |= conn.read_closed;
            return false;
        }
        let hello: &[u8; 6] = conn.inbuf[..6].try_into().expect("6 bytes");
        let Some((reply, accepted)) = answer_hello(hello) else {
            conn.dead = true;
            return false;
        };
        conn.outbuf.extend_from_slice(&reply);
        conn.consumed += 6;
        // `answer_hello` accepts only `PROTOCOL_VERSION`. A refused version
        // still gets its reply; nothing more is read.
        conn.hello_done = accepted.is_some();
        conn.read_closed |= !conn.hello_done;
        conn.hello_done
    }

    /// Decodes and dispatches one frame payload.
    fn process_frame(&mut self, conn: &mut Conn, slot: usize, payload: &[u8]) {
        let request = match decode_request(payload, PROTOCOL_VERSION) {
            Ok(r) => r,
            Err((id, err)) => {
                counter!("mmdb_server_malformed_total").inc();
                conn.push_err(id, None, Status::BadRequest, &err.to_string());
                return;
            }
        };
        series(request.body.opcode()).requests.inc();
        if matches!(request.body, RequestBody::Ping) {
            let trace_id = request.trace.map(|ctx| ctx.trace_id);
            conn.push_reply(&encode_ok(
                request.id,
                trace_id,
                &ReplyBody::Pong,
                PROTOCOL_VERSION,
            ));
            return;
        }
        let job = Job {
            request,
            accepted_at: Instant::now(),
            conn: slot,
            generation: conn.generation,
        };
        match &self.queue {
            None => {
                // Inline mode: execute on the reactor, no hand-off.
                let waited = job.accepted_at.elapsed();
                let payload = run_job(self.backend.as_ref(), job, waited, self.config.trace_keep);
                conn.push_reply(&payload);
            }
            Some(queue) => match queue.try_push(job) {
                Ok(()) => {
                    conn.inflight += 1;
                    gauge!("mmdb_server_queue_depth").set(queue.len() as u64);
                }
                Err((job, push_err)) => {
                    self.refuse(conn, job, push_err, queue.capacity());
                }
            },
        }
    }

    /// Answers an admission-refused job with `OVERLOADED`.
    fn refuse(&self, conn: &mut Conn, job: Job, push_err: PushError, capacity: usize) {
        counter!("mmdb_server_overloaded_total").inc();
        series(job.request.body.opcode()).errors.inc();
        let detail = match push_err {
            PushError::Full => format!("queue full (depth {capacity})"),
            PushError::Closed => "server shutting down".to_string(),
        };
        if mmdb_telemetry::instrumentation_enabled() {
            record_refused_demand(&job.request.body);
            mmdb_telemetry::recorder().record(
                EventKind::ServerOverload,
                format!("opcode={} {detail}", job.request.body.opcode().name()),
                &[("request_id", job.request.id)],
            );
        }
        let ctx = trace_context(&job.request);
        // Admission refusals never reach the executor, so they'd otherwise
        // be invisible to tracing; the kept trace (error rule) is spanless
        // and carries the refusal.
        request_trace(
            self.config.trace_keep,
            ctx,
            job.request.body.opcode(),
            Status::Overloaded,
            Some(&detail),
            None,
            None,
        );
        let id = job.request.id;
        conn.push_err(id, Some(ctx.trace_id), Status::Overloaded, &detail);
    }

    /// Routes one executor completion into its connection's outbox (the
    /// generation check discards replies for connections that died while
    /// the job was in flight).
    fn deliver(&mut self, c: Completion) {
        if let Some(conn) = self.conns.get_mut(c.conn).and_then(Option::as_mut) {
            if conn.generation == c.generation {
                conn.inflight = conn.inflight.saturating_sub(1);
                if !conn.dead {
                    conn.push_reply(&c.payload);
                    conn.flush();
                }
            }
        }
    }

    /// Closes finished connections: dead ones immediately, read-closed
    /// ones once every reply has been delivered and flushed, and ones that
    /// have sat past the handshake window without completing the hello.
    fn reap(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let flushed = conn.pending_out() == 0 && conn.inflight == 0;
            let silent =
                !conn.hello_done && !conn.read_closed && conn.opened.elapsed() >= HANDSHAKE_TIMEOUT;
            let done = conn.dead || silent || (conn.read_closed && flushed);
            if done {
                if let Some(conn) = self.conns[slot].take() {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    self.free.push(slot);
                }
            }
        }
    }
}

// ── Request execution (shared by executor threads and inline mode) ─────

fn worker_loop(
    queue: &BoundedQueue<Job>,
    backend: &dyn QueryBackend,
    trace_keep: Duration,
    completions: &mpsc::Sender<Completion>,
    wake: &UnixStream,
) {
    while let Some(job) = queue.pop() {
        gauge!("mmdb_server_queue_depth").set(queue.len() as u64);
        let waited = job.accepted_at.elapsed();
        let conn = job.conn;
        let generation = job.generation;
        let payload = run_job(backend, job, waited, trace_keep);
        let _ = completions.send(Completion {
            conn,
            generation,
            payload,
        });
        let _ = (&*wake).write(&[1]);
    }
}

/// Executes one job end to end — deadline check, backend call under
/// `catch_unwind`, metrics, the request's trace — and returns the encoded
/// reply payload. Runs on executor threads (pool mode) or the reactor
/// (inline mode, where `waited` is effectively zero).
fn run_job(
    backend: &dyn QueryBackend,
    job: Job,
    waited: Duration,
    trace_keep: Duration,
) -> Vec<u8> {
    histogram!("mmdb_server_queue_wait_seconds").observe(waited);
    let id = job.request.id;
    let opcode = job.request.body.opcode();
    let ctx = trace_context(&job.request);
    let wire_trace_id = Some(ctx.trace_id);
    let reply_err =
        |status: Status, msg: &str| encode_err(id, wire_trace_id, status, msg, PROTOCOL_VERSION);
    if job.request.deadline_ms > 0
        && waited >= Duration::from_millis(u64::from(job.request.deadline_ms))
    {
        counter!("mmdb_server_deadline_exceeded_total").inc();
        series(opcode).errors.inc();
        if mmdb_telemetry::instrumentation_enabled() {
            record_refused_demand(&job.request.body);
            mmdb_telemetry::recorder().record(
                EventKind::ServerDeadlineExceeded,
                format!(
                    "opcode={} queued_for={}",
                    opcode.name(),
                    mmdb_telemetry::format_duration(waited)
                ),
                &[
                    ("request_id", id),
                    ("deadline_ms", u64::from(job.request.deadline_ms)),
                ],
            );
        }
        // The whole lifetime of this request was queue wait — exactly the
        // "slow because queued" shape the tail sampler exists to expose.
        request_trace(
            trace_keep,
            ctx,
            opcode,
            Status::DeadlineExceeded,
            None,
            Some(waited),
            None,
        );
        let msg = format!(
            "deadline of {}ms expired after {} in queue; request not executed",
            job.request.deadline_ms,
            mmdb_telemetry::format_duration(waited)
        );
        return reply_err(Status::DeadlineExceeded, &msg);
    }
    let exec_start = Instant::now();
    // A panic in the backend must not unwind the executor (or the reactor,
    // in inline mode): the pool is fixed-size with no respawn, so an
    // unwinding request would both drop its reply (hanging the client
    // until its read timeout) and permanently shrink the pool. Catch it
    // and answer INTERNAL.
    // Backend stage tracing (the per-plan span tree) costs real work —
    // traced query paths bypass caches and allocate spans — so it runs
    // only when the trace is certain to be kept (a zero keep threshold,
    // or a sampled context). Other requests are timed with the cheap
    // queue_wait/execute spans and remain eligible for retroactive keep;
    // only the plan-internal detail is coarser.
    let want_stages = trace_keep.is_zero() || ctx.sampled;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(backend, &job.request.body, want_stages)
    }));
    let exec_elapsed = exec_start.elapsed();
    let (status, backend_trace, payload) = match outcome {
        Ok(Ok((body, backend_trace))) => (
            Status::Ok,
            backend_trace,
            encode_ok(id, wire_trace_id, &body, PROTOCOL_VERSION),
        ),
        Ok(Err(err)) => (err.status(), None, reply_err(err.status(), &err.message())),
        Err(panic) => {
            counter!("mmdb_server_backend_panics_total").inc();
            let detail = panic_message(panic.as_ref());
            if mmdb_telemetry::instrumentation_enabled() {
                mmdb_telemetry::recorder().record(
                    EventKind::ServerBackendPanic,
                    format!("opcode={} {detail}", opcode.name()),
                    &[("request_id", id)],
                );
            }
            (
                Status::Internal,
                None,
                reply_err(Status::Internal, &format!("backend panicked: {detail}")),
            )
        }
    };
    let series = series(opcode);
    if status != Status::Ok {
        series.errors.inc();
    }
    series.execute.observe(exec_elapsed);
    // Full request latency from admission, so queue_wait + execute
    // histograms decompose it.
    series.latency.observe(job.accepted_at.elapsed());
    request_trace(
        trace_keep,
        ctx,
        opcode,
        status,
        None,
        Some(waited),
        Some((exec_elapsed, backend_trace)),
    );
    payload
}

/// The trace context a request runs under: the client's when it sent one,
/// otherwise a server-generated unsampled one (so every reply carries a
/// trace id to correlate on).
fn trace_context(request: &Request) -> TraceContext {
    request
        .trace
        .unwrap_or_else(|| TraceContext::generate(false))
}

/// The one place a served request is described. Decides first, from what
/// is already known, whether the trace will be kept ([`keep_reason`]); a
/// dropped request is counted and nothing is built. `detail` is an
/// admission refusal's message; `queue_wait` is `None` for a request that
/// was never queued; `executed` is the backend's elapsed time and stage
/// tree, `None` for a request that never ran.
fn request_trace(
    trace_keep: Duration,
    ctx: TraceContext,
    opcode: Opcode,
    status: Status,
    detail: Option<&str>,
    queue_wait: Option<Duration>,
    executed: Option<(Duration, Option<QueryTrace>)>,
) {
    let waited = queue_wait.unwrap_or_default();
    let total = waited
        + executed
            .as_ref()
            .map_or(Duration::ZERO, |(elapsed, _)| *elapsed);
    let Some(reason) = keep_reason(ctx.sampled, status != Status::Ok, total, trace_keep) else {
        counter!("mmdb_trace_dropped_total").inc();
        return;
    };
    let mut trace = QueryTrace::new(format!("request/{}", opcode.name()));
    trace.event("opcode", opcode.name());
    trace.event("status", status.name());
    if let Some(detail) = detail {
        trace.event("detail", detail);
    }
    if let Some(waited) = queue_wait {
        trace.stage("queue_wait", waited);
    }
    if let Some((elapsed, backend_trace)) = executed {
        if ctx.sampled {
            trace.event("sampled", "true");
        }
        let execute = trace.stage("execute", elapsed);
        if let Some(backend_trace) = backend_trace {
            // Graft the backend's stage tree (plan scans,
            // index_sync/index_lookup, …) under the execute span and hoist
            // its events (plan chosen, …) to the request level.
            execute.child(backend_trace.root().clone());
            trace.events.extend(backend_trace.events);
        }
    }
    trace.finish(total);
    let unix_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
    mmdb_telemetry::trace_store().keep(StoredTrace {
        trace_id: ctx.trace_id,
        unix_micros,
        opcode: opcode.name().to_string(),
        status: status.name().to_string(),
        total,
        queue_wait: waited,
        keep_reason: reason,
        trace,
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn execute(
    backend: &dyn QueryBackend,
    body: &RequestBody,
    traced: bool,
) -> Result<(ReplyBody, Option<QueryTrace>), crate::backend::BackendError> {
    match body {
        RequestBody::Ping => Ok((ReplyBody::Pong, None)),
        RequestBody::Range(req) if traced => backend
            .range_traced(req)
            .map(|(reply, trace)| (ReplyBody::Range(reply), trace)),
        RequestBody::Range(req) => backend.range(req).map(|r| (ReplyBody::Range(r), None)),
        RequestBody::Knn { probe_id, k } => backend
            .knn(*probe_id, *k)
            .map(|pairs| (ReplyBody::Knn(pairs), None)),
        RequestBody::Lookup { id } => backend.lookup(*id).map(|l| (ReplyBody::Lookup(l), None)),
        RequestBody::Stats => Ok((ReplyBody::Stats(backend.stats()), None)),
    }
}
