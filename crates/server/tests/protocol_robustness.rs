//! Robustness tests for the wire protocol and server loop: malformed
//! frames, oversized length prefixes, truncated payloads, and unknown
//! opcodes must produce a structured error or a clean disconnect — never a
//! panic or a hang — and the admission-control / deadline / drain paths
//! must behave as specified.

use mmdb_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, Opcode, PlanKind, ProfileKind,
    RangeRequest, Request, RequestBody, Response, MAGIC, PROTOCOL_VERSION,
};
use mmdb_server::{
    BackendError, Client, ClientError, LookupReply, QueryBackend, QueryServer, RangeReply,
    ServerConfig, StatsReply, Status,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A backend that optionally sleeps per range call (to hold a worker busy)
/// and counts executed range queries (to prove deadline-expired requests
/// are never executed).
struct MockBackend {
    range_delay: Duration,
    range_calls: AtomicU64,
}

impl MockBackend {
    fn instant() -> Arc<MockBackend> {
        Arc::new(MockBackend {
            range_delay: Duration::ZERO,
            range_calls: AtomicU64::new(0),
        })
    }

    fn slow(delay: Duration) -> Arc<MockBackend> {
        Arc::new(MockBackend {
            range_delay: delay,
            range_calls: AtomicU64::new(0),
        })
    }
}

impl QueryBackend for MockBackend {
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError> {
        self.range_calls.fetch_add(1, Ordering::SeqCst);
        if req.bin == 666 {
            panic!("backend exploded on bin 666");
        }
        if !self.range_delay.is_zero() {
            std::thread::sleep(self.range_delay);
        }
        Ok(RangeReply {
            ids: vec![u64::from(req.bin)],
            bounds_computed: 1,
            shortcut_emissions: 0,
        })
    }

    fn knn(&self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, BackendError> {
        if probe_id == 404 {
            return Err(BackendError::NotFound(probe_id));
        }
        Ok((0..u64::from(k)).map(|i| (i, i as f64)).collect())
    }

    fn lookup(&self, id: u64) -> Result<LookupReply, BackendError> {
        match id {
            404 => Err(BackendError::NotFound(id)),
            500 => Err(BackendError::Internal("disk on fire".into())),
            _ => Ok(LookupReply {
                kind: 0,
                width: 8,
                height: 8,
                pixels: 64,
                base: None,
            }),
        }
    }

    fn stats(&self) -> StatsReply {
        StatsReply {
            binary_count: 1,
            edited_count: 2,
            binary_bytes: 3,
            edited_bytes: 4,
            cache_hits: 5,
            cache_misses: 6,
        }
    }
}

fn range_request() -> RangeRequest {
    RangeRequest {
        plan: PlanKind::Bwm,
        profile: ProfileKind::Conservative,
        bin: 7,
        pct_min: 0.25,
        pct_max: 1.0,
    }
}

/// Connects and performs the handshake by hand, returning a raw stream for
/// byte-level tests. A read timeout guards every test against hangs.
fn raw_connect(server: &QueryServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    mmdb_server::protocol::client_handshake(&mut stream).unwrap();
    stream
}

fn send_request(stream: &mut TcpStream, id: u64, deadline_ms: u32, body: RequestBody) {
    let frame = encode_request(
        &Request {
            id,
            deadline_ms,
            trace: None,
            body,
        },
        PROTOCOL_VERSION,
    );
    write_frame(stream, &frame).unwrap();
}

fn recv_response(stream: &mut TcpStream, opcode: Opcode) -> Response {
    let payload = read_frame(stream, 4 << 20).unwrap();
    decode_response(&payload, opcode, PROTOCOL_VERSION).unwrap()
}

#[test]
fn malformed_payload_gets_structured_error_and_connection_survives() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = raw_connect(&server);

    // Too short to even hold a request id.
    write_frame(&mut stream, &[1, 2, 3]).unwrap();
    match recv_response(&mut stream, Opcode::Ping) {
        Response::Err { status, .. } => assert_eq!(status, Status::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }

    // The same connection still serves well-formed requests.
    send_request(&mut stream, 9, 0, RequestBody::Ping);
    match recv_response(&mut stream, Opcode::Ping) {
        Response::Ok { id, .. } => assert_eq!(id, 9),
        other => panic!("expected pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_opcode_reports_bad_request_with_request_id() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = raw_connect(&server);

    let mut payload = Vec::new();
    payload.extend_from_slice(&77u64.to_le_bytes());
    payload.push(0xEE); // no such opcode
    payload.extend_from_slice(&0u32.to_le_bytes());
    write_frame(&mut stream, &payload).unwrap();

    match recv_response(&mut stream, Opcode::Ping) {
        Response::Err {
            id,
            status,
            message,
            ..
        } => {
            assert_eq!(id, 77, "error must carry the offending request id");
            assert_eq!(status, Status::BadRequest);
            assert!(message.contains("opcode"), "unhelpful message: {message}");
        }
        other => panic!("expected error response, got {other:?}"),
    }
    server.shutdown();
}

/// Profile byte 1, the paper's literal Table 1 (unsound bounds), is refused
/// by name at decode; any other unknown byte is a bad selector. Neither
/// reaches the backend, and the connection keeps serving.
#[test]
fn unsound_profile_is_refused_by_name_and_connection_survives() {
    let backend = MockBackend::instant();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::<MockBackend>::clone(&backend),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = raw_connect(&server);

    for (id, profile, detail) in [
        (41u64, 1u8, "paper_table1"),
        (42, 2, "bad profile selector 2"),
    ] {
        // By hand: the encoder can only write profile 0.
        let mut payload = Vec::new();
        payload.extend_from_slice(&id.to_le_bytes());
        payload.push(Opcode::Range.as_u8());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no deadline
        payload.push(0); // no trace context
        payload.push(PlanKind::Bwm.as_u8());
        payload.push(profile);
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&0.25f64.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        write_frame(&mut stream, &payload).unwrap();
        match recv_response(&mut stream, Opcode::Range) {
            Response::Err {
                id: echoed,
                status,
                message,
                ..
            } => {
                assert_eq!((echoed, status), (id, Status::BadRequest));
                assert!(message.contains(detail), "profile {profile}: {message}");
            }
            other => panic!("profile {profile}: expected BAD_REQUEST, got {other:?}"),
        }
        send_request(
            &mut stream,
            id + 100,
            0,
            RequestBody::Range(range_request()),
        );
        match recv_response(&mut stream, Opcode::Range) {
            Response::Ok { id: echoed, .. } => assert_eq!(echoed, id + 100),
            other => panic!("after profile {profile}: expected a reply, got {other:?}"),
        }
    }
    assert_eq!(backend.range_calls.load(Ordering::SeqCst), 2);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_disconnects_cleanly() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = raw_connect(&server);

    // A length prefix far beyond the maximum. The server answers
    // with a structured error and then hangs up (the stream can no longer
    // be framed).
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match recv_response(&mut stream, Opcode::Ping) {
        Response::Err { status, .. } => assert_eq!(status, Status::BadRequest),
        other => panic!("expected error response, got {other:?}"),
    }
    // Clean disconnect: EOF, not a hang or a reset mid-frame.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn truncated_frame_then_close_does_not_wedge_server() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();

    {
        let mut stream = raw_connect(&server);
        // Claim 100 bytes, deliver 10, vanish.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        drop(stream);
    }

    // The server must still accept and serve fresh connections.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn bad_magic_is_disconnected_without_reply() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Exactly one hello's worth of non-MMDB bytes (extra unread bytes would
    // turn the server's close into a RST, which is also fine but noisier).
    stream.write_all(b"GET / ").unwrap();
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => assert!(
            reply.is_empty(),
            "server must not echo anything at a non-MMDB client"
        ),
        // A reset is still "hung up without replying".
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("unexpected read error: {e}"),
    }
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected_in_handshake() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    // The retired v1 dialect is refused like any version this build does
    // not speak.
    for version in [1u16, 999] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut hello = [0u8; 6];
        hello[..4].copy_from_slice(&MAGIC);
        hello[4..].copy_from_slice(&version.to_le_bytes());
        stream.write_all(&hello).unwrap();
        let mut reply = [0u8; 7];
        stream.read_exact(&mut reply).unwrap();
        assert_eq!(reply[..4], MAGIC);
        assert_eq!(reply[6], 1, "v{version}: rejection byte must be set");
        // And then the server hangs up.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }
    server.shutdown();
}

#[test]
fn overload_returns_structured_error_and_ping_still_answers() {
    // One worker, queue depth one: the second in-flight range occupies the
    // queue slot and the third must be refused.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let backend = MockBackend::slow(Duration::from_millis(300));
    let server = QueryServer::bind("127.0.0.1:0", backend, config).unwrap();
    let mut stream = raw_connect(&server);

    send_request(&mut stream, 1, 0, RequestBody::Range(range_request()));
    // Give the worker a moment to dequeue request 1 before filling the slot.
    std::thread::sleep(Duration::from_millis(100));
    send_request(&mut stream, 2, 0, RequestBody::Range(range_request()));
    std::thread::sleep(Duration::from_millis(50));
    send_request(&mut stream, 3, 0, RequestBody::Range(range_request()));
    // Pings bypass the queue entirely, so liveness survives overload.
    send_request(&mut stream, 4, 0, RequestBody::Ping);

    let mut ok = Vec::new();
    let mut overloaded = Vec::new();
    let mut pong = 0;
    for _ in 0..4 {
        // Responses are pipelined in completion order; pick the decode
        // opcode by request id (4 was the ping).
        let payload = read_frame(&mut stream, 4 << 20).unwrap();
        let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let opcode = if id == 4 { Opcode::Ping } else { Opcode::Range };
        match decode_response(&payload, opcode, PROTOCOL_VERSION).unwrap() {
            Response::Ok { id: 4, .. } => pong += 1,
            Response::Ok { id, .. } => ok.push(id),
            Response::Err { id, status, .. } => {
                assert_eq!(status, Status::Overloaded, "request {id}");
                overloaded.push(id);
            }
        }
    }
    assert_eq!(pong, 1, "ping must be answered inline under overload");
    assert_eq!(overloaded, vec![3], "third range must be refused");
    ok.sort_unstable();
    assert_eq!(ok, vec![1, 2]);
    server.shutdown();
}

#[test]
fn expired_deadline_is_refused_without_executing() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    };
    let backend = MockBackend::slow(Duration::from_millis(200));
    let server =
        QueryServer::bind("127.0.0.1:0", Arc::<MockBackend>::clone(&backend), config).unwrap();
    let mut stream = raw_connect(&server);

    // Request 1 holds the only worker for 200ms; request 2 allows 1ms of
    // queueing, which has long expired by the time a worker frees up.
    send_request(&mut stream, 1, 0, RequestBody::Range(range_request()));
    std::thread::sleep(Duration::from_millis(100));
    send_request(&mut stream, 2, 1, RequestBody::Range(range_request()));

    let mut expired = 0;
    for _ in 0..2 {
        match recv_response(&mut stream, Opcode::Range) {
            Response::Ok { id, .. } => assert_eq!(id, 1),
            Response::Err { id, status, .. } => {
                assert_eq!(id, 2);
                assert_eq!(status, Status::DeadlineExceeded);
                expired += 1;
            }
        }
    }
    assert_eq!(expired, 1);
    assert_eq!(
        backend.range_calls.load(Ordering::SeqCst),
        1,
        "the expired request must never reach the backend"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_requests() {
    // Pool mode and inline mode (requests executed on the event loop) drain
    // alike, and neither waits out the drain's 10 s backstop.
    for workers in [0, 2] {
        let config = ServerConfig {
            workers,
            queue_depth: 16,
            ..ServerConfig::default()
        };
        let backend = MockBackend::slow(Duration::from_millis(50));
        let server =
            QueryServer::bind("127.0.0.1:0", Arc::<MockBackend>::clone(&backend), config).unwrap();
        let mut stream = raw_connect(&server);

        for id in 1..=6u64 {
            send_request(&mut stream, id, 0, RequestBody::Range(range_request()));
        }
        std::thread::sleep(Duration::from_millis(20));
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            server.shutdown();
            started.elapsed()
        });

        // Every accepted request is answered before the server closes.
        let mut answered = Vec::new();
        for _ in 0..6 {
            match recv_response(&mut stream, Opcode::Range) {
                Response::Ok { id, .. } => answered.push(id),
                Response::Err { id, status, .. } => {
                    panic!("workers {workers}: request {id} failed with {status:?}")
                }
            }
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 2, 3, 4, 5, 6], "workers {workers}");
        let took = handle.join().unwrap();
        assert!(
            took < Duration::from_secs(2),
            "workers {workers}: shutdown took {took:?}"
        );
        assert_eq!(backend.range_calls.load(Ordering::SeqCst), 6);
    }
}

#[test]
fn backend_errors_map_to_structured_statuses() {
    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.lookup(404) {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, Status::NotFound),
        other => panic!("expected NOT_FOUND, got {other:?}"),
    }
    match client.lookup(500) {
        Err(ClientError::Server { status, message }) => {
            assert_eq!(status, Status::Internal);
            assert!(message.contains("disk on fire"));
        }
        other => panic!("expected INTERNAL, got {other:?}"),
    }
    let found = client.lookup(1).unwrap();
    assert_eq!(found.pixels, 64);
    server.shutdown();
}

#[test]
fn backend_panic_answers_internal_and_worker_survives() {
    // One worker: if the panic unwound the worker thread, the follow-up
    // requests would never be executed and the reply for the panicking
    // request would be silently dropped (client hang). The server must
    // instead answer INTERNAL and keep the worker alive.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    };
    let backend = MockBackend::instant();
    let server =
        QueryServer::bind("127.0.0.1:0", Arc::<MockBackend>::clone(&backend), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for round in 0..3 {
        let mut bad = range_request();
        bad.bin = 666;
        match client.range(bad) {
            Err(ClientError::Server { status, message }) => {
                assert_eq!(status, Status::Internal, "round {round}");
                assert!(
                    message.contains("panic"),
                    "round {round}: unhelpful message: {message}"
                );
            }
            other => panic!("round {round}: expected INTERNAL, got {other:?}"),
        }
        // The sole worker must still be alive to serve this.
        let reply = client.range(range_request()).unwrap();
        assert_eq!(reply.ids, vec![7]);
    }
    assert_eq!(backend.range_calls.load(Ordering::SeqCst), 6);
    server.shutdown();
}

#[test]
fn invalid_percentage_range_is_rejected_before_execution() {
    let backend = MockBackend::instant();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::<MockBackend>::clone(&backend),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut req = range_request();
    req.pct_min = f64::NAN;
    match client.range(req) {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, Status::BadRequest),
        other => panic!("expected BAD_REQUEST, got {other:?}"),
    }
    assert_eq!(backend.range_calls.load(Ordering::SeqCst), 0);
    server.shutdown();
}

#[test]
fn silent_connection_is_dropped_after_the_handshake_window() {
    // The server's handshake window (5 s) plus one reactor park (250 ms),
    // with slack for a loaded machine.
    const WINDOW: Duration = Duration::from_secs(5);
    const SLACK: Duration = Duration::from_millis(250 + 1000);

    let server = QueryServer::bind(
        "127.0.0.1:0",
        MockBackend::instant(),
        ServerConfig::default(),
    )
    .unwrap();
    let opened = std::time::Instant::now();
    // Nothing at all, and half a hello: neither ever produces a readable
    // event past its last byte, so only a sweep can close them.
    let silent = TcpStream::connect(server.local_addr()).unwrap();
    let mut partial = TcpStream::connect(server.local_addr()).unwrap();
    partial.write_all(&MAGIC[..3]).unwrap();
    // A connection that did complete the hello and then idles is not swept.
    let mut idle = Client::connect(server.local_addr()).unwrap();

    for (what, mut stream) in [("silent", silent), ("3-byte", partial)] {
        stream.set_read_timeout(Some(WINDOW + SLACK)).unwrap();
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => assert!(reply.is_empty(), "{what}: no hello, no reply"),
            Err(e) => panic!("{what} connection still open after the window: {e}"),
        }
        assert!(
            opened.elapsed() >= WINDOW,
            "{what} connection dropped early, after {:?}",
            opened.elapsed()
        );
    }
    idle.ping().unwrap();
    server.shutdown();
}
