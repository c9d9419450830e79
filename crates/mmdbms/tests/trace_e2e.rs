//! End-to-end tests for cross-layer request tracing: wire-propagated trace
//! ids, tail-sampled retroactive keeps, and queue-wait attribution visible
//! through the `/traces/<id>` exposition endpoint.
//!
//! The trace store is process-global, so every test takes the same lock —
//! otherwise one test's `clear()` would race another's assertions. The keep
//! threshold is per server ([`ServerConfig::trace_keep`]).

use mmdbms::datagen::helmets::HelmetGenerator;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{
    BackendError, Client, LookupReply, QueryBackend, QueryServer, RangeReply, RangeRequest,
    ServerConfig, StatsReply, Status, TraceContext,
};
use mmdbms::telemetry::{global, serve_with, trace_store, KeepReason, ServeOptions};
use mmdbms::MultimediaDatabase;
use std::io::{Read as _, Write as _};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that touch the process-global trace store.
fn global_trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panic in another test must not wedge the rest of the suite.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn seeded_db() -> Arc<MultimediaDatabase> {
    let db = Arc::new(MultimediaDatabase::in_memory(Box::new(
        RgbQuantizer::default_64(),
    )));
    let generator = HelmetGenerator::with_seed(11);
    for i in 0..6 {
        db.insert_image(&generator.generate(i)).unwrap();
    }
    db
}

fn range_request() -> RangeRequest {
    RangeRequest {
        plan: PlanKind::Bwm,
        profile: ProfileKind::Conservative,
        bin: 3,
        pct_min: 0.0,
        pct_max: 1.0,
    }
}

#[test]
fn trace_ids_round_trip_under_concurrency() {
    let _guard = global_trace_lock();
    trace_store().clear();
    let db = seeded_db();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        db as Arc<dyn QueryBackend>,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                assert_eq!(client.protocol_version(), 2);
                let mut sent = Vec::new();
                for _ in 0..25 {
                    let ctx = TraceContext::generate(true);
                    let (_reply, echoed) = client.range_traced(range_request(), 0, ctx).unwrap();
                    assert_eq!(
                        echoed,
                        Some(ctx.trace_id),
                        "server must echo the exact trace id it was sent"
                    );
                    sent.push(ctx.trace_id);
                }
                sent
            })
        })
        .collect();
    let mut all_ids = Vec::new();
    for h in handles {
        all_ids.extend(h.join().unwrap());
    }
    server.shutdown();

    // 100 distinct ids, none mixed up between pipelined connections.
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(all_ids.len(), 100, "trace ids must be distinct");
    // Sampled contexts are kept unconditionally by the tail sampler, and
    // 100 fits within the store's bounded capacity, so all must survive.
    let kept = trace_store().len();
    assert!(kept >= 100, "sampled traces must be kept, got {kept}");
}

#[test]
fn slow_query_is_kept_retroactively_without_sampling() {
    let _guard = global_trace_lock();
    trace_store().clear();
    let db = seeded_db();
    let bind = |trace_keep| {
        QueryServer::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn QueryBackend>,
            ServerConfig {
                trace_keep,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    // Two servers in one process, differing only in their keep threshold,
    // each sent the same unsampled request.
    let eager = bind(Duration::from_micros(1));
    let default = bind(ServerConfig::default().trace_keep);
    let send = |server: &QueryServer| {
        let ctx = TraceContext::generate(false);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (_, echoed) = client.range_traced(range_request(), 0, ctx).unwrap();
        assert_eq!(echoed, Some(ctx.trace_id));
        ctx.trace_id
    };

    // Any real query runs longer than 1µs, so the *unsampled* trace is kept
    // retroactively with reason "slow".
    let stored = trace_store()
        .get(send(&eager))
        .expect("slow unsampled trace must be kept retroactively");
    assert_eq!(stored.keep_reason, KeepReason::Slow);
    assert_eq!(stored.opcode, "range");
    assert_eq!(stored.status, "OK");
    assert!(stored.total >= stored.queue_wait);
    assert!(stored.trace.span("queue_wait").is_some());
    assert!(stored.trace.span("execute").is_some());

    // Under the default threshold the same fast query is dropped: that
    // asymmetry is the whole point of tail sampling.
    assert!(
        trace_store().get(send(&default)).is_none(),
        "fast unsampled trace must be dropped"
    );
    eager.shutdown();
    default.shutdown();
}

/// The default request path describes nothing: fast, unsampled, successful
/// requests are counted as dropped and never reach the store.
#[test]
fn fast_unsampled_requests_are_counted_not_described() {
    const N: u64 = 25;
    let _guard = global_trace_lock();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        seeded_db() as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let dropped = global().counter("mmdb_trace_dropped_total");
    let (kept_before, dropped_before) = (trace_store().len(), dropped.get());
    for _ in 0..N {
        client.range(range_request()).unwrap();
        assert!(
            client.last_trace_id().is_some(),
            "a request without trace context is answered with a server-made id"
        );
    }
    assert_eq!(trace_store().len(), kept_before);
    assert_eq!(dropped.get(), dropped_before + N);
    server.shutdown();
}

/// A backend whose range queries announce themselves and then park until
/// released, so a test decides exactly when the single worker is busy.
struct GatedBackend {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryBackend for GatedBackend {
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError> {
        self.entered.lock().unwrap().send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        SlowBackend(Duration::ZERO).range(req)
    }

    fn knn(&self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, BackendError> {
        SlowBackend(Duration::ZERO).knn(probe_id, k)
    }

    fn lookup(&self, id: u64) -> Result<LookupReply, BackendError> {
        SlowBackend(Duration::ZERO).lookup(id)
    }

    fn stats(&self) -> StatsReply {
        SlowBackend(Duration::ZERO).stats()
    }
}

/// The two error paths that never execute — refused at admission, expired
/// in the queue — are kept by the error rule with the events they always
/// carried.
#[test]
fn refused_and_expired_requests_are_kept_as_errors() {
    let _guard = global_trace_lock();
    trace_store().clear();
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::new(GatedBackend {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        }) as Arc<dyn QueryBackend>,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let call = move |deadline_ms| {
        let ctx = TraceContext::generate(false);
        let handle = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.range_traced(range_request(), deadline_ms, ctx)
        });
        (ctx.trace_id, handle)
    };
    let events = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };

    // Occupy the only worker, fill the one queue slot with a request whose
    // deadline will have passed by the time it is dequeued…
    let (_, holder) = call(0);
    entered.recv().unwrap();
    let (expired_id, expired) = call(1);
    while server.queue_len() == 0 {
        std::thread::yield_now();
    }
    // …so the next request is refused at admission.
    let (refused_id, refused) = call(0);
    let err = refused.join().unwrap().unwrap_err();
    assert_eq!(err.status(), Some(Status::Overloaded));
    let stored = trace_store().get(refused_id).expect("refusal is kept");
    assert_eq!(stored.keep_reason, KeepReason::Error);
    assert_eq!(stored.status, "OVERLOADED");
    assert_eq!(
        stored.trace.events,
        events(&[
            ("opcode", "range"),
            ("status", "OVERLOADED"),
            ("detail", "queue full (depth 1)"),
        ])
    );
    assert!(stored.trace.root().children.is_empty(), "spanless");
    assert_eq!(stored.total, Duration::ZERO);

    std::thread::sleep(Duration::from_millis(5));
    release.send(()).unwrap();
    holder.join().unwrap().unwrap();
    let err = expired.join().unwrap().unwrap_err();
    assert_eq!(err.status(), Some(Status::DeadlineExceeded));
    let stored = trace_store().get(expired_id).expect("expiry is kept");
    assert_eq!(stored.keep_reason, KeepReason::Error);
    assert_eq!(
        stored.trace.events,
        events(&[("opcode", "range"), ("status", "DEADLINE_EXCEEDED")])
    );
    let spans: Vec<_> = stored.trace.root().children.iter().collect();
    assert_eq!(spans.len(), 1, "queue wait only; it never executed");
    assert_eq!(spans[0].name, "queue_wait");
    assert_eq!(stored.total, stored.queue_wait);
    assert_eq!(stored.trace.root().duration, stored.total);
    server.shutdown();
}

/// A backend whose range queries take a fixed time, so a second request
/// demonstrably waits in the admission queue behind the single worker.
struct SlowBackend(Duration);

impl QueryBackend for SlowBackend {
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError> {
        std::thread::sleep(self.0);
        Ok(RangeReply {
            ids: vec![u64::from(req.bin)],
            bounds_computed: 0,
            shortcut_emissions: 0,
        })
    }

    fn knn(&self, _probe_id: u64, _k: u32) -> Result<Vec<(u64, f64)>, BackendError> {
        Ok(Vec::new())
    }

    fn lookup(&self, id: u64) -> Result<LookupReply, BackendError> {
        Err(BackendError::NotFound(id))
    }

    fn stats(&self) -> StatsReply {
        StatsReply {
            binary_count: 0,
            edited_count: 0,
            binary_bytes: 0,
            edited_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    let status = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, body.to_string())
}

#[test]
fn queued_request_reports_nonzero_queue_wait_via_http() {
    let _guard = global_trace_lock();
    trace_store().clear();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::new(SlowBackend(Duration::from_millis(80))) as Arc<dyn QueryBackend>,
        ServerConfig {
            workers: 1,
            queue_depth: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let exposition = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();

    // Occupy the only worker, then queue a sampled request behind it.
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.range(range_request()).unwrap();
    });
    std::thread::sleep(Duration::from_millis(20));
    let mut client = Client::connect(addr).unwrap();
    let ctx = TraceContext::generate(true);
    let (_, echoed) = client.range_traced(range_request(), 0, ctx).unwrap();
    holder.join().unwrap();
    assert_eq!(echoed, Some(ctx.trace_id));

    // The summary list knows the id…
    let (status, list) = http_get(exposition.local_addr(), "/traces");
    assert_eq!(status, 200);
    let hex_id = format!("{:016x}", ctx.trace_id);
    assert!(
        list.contains(&hex_id),
        "summary list must contain {hex_id}: {list}"
    );

    // …and the full tree attributes a nonzero queue wait (the request sat
    // behind the 80ms holder for ~60ms).
    let (status, body) = http_get(exposition.local_addr(), &format!("/traces/{hex_id}"));
    assert_eq!(status, 200);
    assert!(
        body.contains("\"queue_wait\""),
        "missing queue_wait span: {body}"
    );
    let wait_nanos: u64 = body
        .split("\"queue_wait_nanos\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("queue_wait_nanos field");
    assert!(
        wait_nanos > 10_000_000,
        "queued request must report substantial queue wait, got {wait_nanos}ns"
    );

    // Unknown ids are a clean 404, not a panic or empty 200.
    let (status, _) = http_get(exposition.local_addr(), "/traces/ffffffffffffffff");
    assert_eq!(status, 404);

    exposition.shutdown();
    server.shutdown();
}
