//! A dependency-free metrics exposition server over `std::net`.
//!
//! Serves the observability surface on a background accept thread, one
//! handler thread per connection (so a slow client cannot stall a
//! concurrent Prometheus scrape):
//!
//! * `/metrics` — the global registry in Prometheus text format
//!   (`?format=json` switches to the JSON exposition),
//! * `/events`  — the flight recorder's retained events as JSON;
//!   `?since=<seq>` returns only events with a larger sequence number so
//!   pollers can cursor through the stream without drops or double-reads,
//! * `/healthz` — pure liveness probe (`ok` as long as the process serves),
//! * `/readyz`  — readiness probe: runs the embedder-supplied
//!   [`ReadinessProbe`] and answers 503 until it reports ready,
//! * `/traces` — tail-sampled trace store summaries (newest first),
//! * `/traces/<id>` — one trace's full span tree by hex id.
//!
//! The server is deliberately minimal HTTP/1.1: it parses the request line,
//! drains headers, answers with `Connection: close`, and handles one request
//! per connection — exactly what a Prometheus scraper or `curl` needs, with
//! zero dependencies beyond `std::net::TcpListener`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Callback run before each `/metrics` render, letting the embedder
/// refresh series that are computed on demand (the bound-index staleness
/// gauges). Counters need no flush: they are exact at scrape time.
pub type PrerenderHook = Arc<dyn Fn() + Send + Sync>;

/// Readiness callback for `/readyz`: `Ok(detail)` answers 200, `Err(detail)`
/// answers 503. Called per probe, so keep it cheap (a couple of atomic
/// loads, not a catalog walk).
pub type ReadinessProbe = Arc<dyn Fn() -> Result<String, String> + Send + Sync>;

/// Embedder configuration for [`serve_with`].
#[derive(Clone, Default)]
pub struct ServeOptions {
    /// Runs before each `/metrics` render.
    pub prerender: Option<PrerenderHook>,
    /// Backs `/readyz`; when absent the server reports ready unconditionally
    /// (liveness and readiness coincide for embedders with no warm-up).
    pub readiness: Option<ReadinessProbe>,
}

/// A running exposition server; dropping it shuts the accept loop down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a self-connection wakes it so
        // it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`, or `:0` for an ephemeral port) and
/// serves the observability routes from a background thread. In-flight
/// handler threads are detached; they answer one request each and exit on
/// their own socket timeouts.
pub fn serve_with(addr: &str, options: ServeOptions) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("mmdb-metrics-server".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let conn_options = options.clone();
                    let spawned = std::thread::Builder::new()
                        .name("mmdb-metrics-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &conn_options);
                        });
                    // Spawn failure (thread exhaustion) drops the connection;
                    // the scraper retries on its next interval.
                    drop(spawned);
                }
            }
        })?;
    Ok(MetricsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

fn handle_connection(stream: TcpStream, options: &ServeOptions) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers up to the blank line; the bodyless GETs we serve need
    // nothing from them.
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let (status, content_type, body) = route(method, path, query, options);
    respond(stream, status, content_type, &body)
}

/// The value of `key` in an `a=1&b=2` query string, if present.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn route(
    method: &str,
    path: &str,
    query: &str,
    options: &ServeOptions,
) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/readyz" => match &options.readiness {
            None => ("200 OK", "text/plain", "ready\n".to_string()),
            Some(probe) => match probe() {
                Ok(detail) => ("200 OK", "text/plain", format!("ready: {detail}\n")),
                Err(detail) => (
                    "503 Service Unavailable",
                    "text/plain",
                    format!("unready: {detail}\n"),
                ),
            },
        },
        "/metrics" => {
            crate::update_uptime();
            if let Some(hook) = &options.prerender {
                hook();
            }
            if query.split('&').any(|kv| kv == "format=json") {
                ("200 OK", "application/json", crate::global().render_json())
            } else {
                (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    crate::global().render_prometheus(),
                )
            }
        }
        "/events" => match query_param(query, "since") {
            None => (
                "200 OK",
                "application/json",
                crate::recorder().render_json(),
            ),
            Some(raw) => match raw.parse::<u64>() {
                Ok(since) => (
                    "200 OK",
                    "application/json",
                    crate::events_to_json(&crate::recorder().events_since(since)),
                ),
                Err(_) => (
                    "400 Bad Request",
                    "text/plain",
                    "since must be a decimal sequence number\n".to_string(),
                ),
            },
        },
        "/traces" => (
            "200 OK",
            "application/json",
            crate::trace_store().render_summaries_json(),
        ),
        _ => {
            if let Some(raw_id) = path.strip_prefix("/traces/") {
                return match crate::parse_trace_id(raw_id) {
                    Some(id) => match crate::trace_store().render_trace_json(id) {
                        Some(json) => ("200 OK", "application/json", json),
                        None => (
                            "404 Not Found",
                            "text/plain",
                            "trace not found (dropped by the sampler or evicted)\n".to_string(),
                        ),
                    },
                    None => (
                        "400 Bad Request",
                        "text/plain",
                        "trace id must be hex (as printed) or decimal\n".to_string(),
                    ),
                };
            }
            ("404 Not Found", "text/plain", "not found\n".to_string())
        }
    }
}

fn respond(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_events_and_healthz() {
        crate::global().counter("mmdb_server_test_total").add(7);
        crate::recorder().record(crate::EventKind::LintRun, "server-test", &[]);
        let server = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"));

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("mmdb_server_test_total 7"));
        assert!(metrics.contains("mmdb_uptime_seconds"));

        let metrics_json = get(addr, "/metrics?format=json");
        assert!(metrics_json.contains("application/json"));
        assert!(metrics_json.contains("\"mmdb_server_test_total\": 7"));

        let events = get(addr, "/events");
        assert!(events.contains("\"events\""));
        assert!(events.contains("server-test"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn events_since_cursor_over_http() {
        crate::recorder().record(crate::EventKind::LintRun, "cursor-a", &[]);
        crate::recorder().record(crate::EventKind::LintRun, "cursor-b", &[]);
        let events = crate::recorder().events();
        let seq_b = events.iter().find(|e| e.detail == "cursor-b").unwrap().seq;
        let server = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr();

        // A cursor at cursor-b excludes it (and everything older).
        let empty = get(addr, &format!("/events?since={seq_b}"));
        assert!(empty.starts_with("HTTP/1.1 200"), "{empty}");
        assert!(!empty.contains("cursor-b"));

        // One event behind returns cursor-b but never the older cursor-a.
        let tail = get(addr, &format!("/events?since={}", seq_b - 1));
        assert!(tail.contains("cursor-b"));
        assert!(!tail.contains("cursor-a"));

        let bad = get(addr, "/events?since=banana");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        server.shutdown();
    }

    #[test]
    fn readyz_follows_probe_and_defaults_ready() {
        // No probe: liveness and readiness coincide.
        let plain = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();
        let ready = get(plain.local_addr(), "/readyz");
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        plain.shutdown();

        // With a probe: 503 until it flips.
        let ready_flag = Arc::new(AtomicBool::new(false));
        let probe_flag = Arc::clone(&ready_flag);
        let server = serve_with(
            "127.0.0.1:0",
            ServeOptions {
                prerender: None,
                readiness: Some(Arc::new(move || {
                    if probe_flag.load(Ordering::SeqCst) {
                        Ok("index warm".to_string())
                    } else {
                        Err("index cold".to_string())
                    }
                })),
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let unready = get(addr, "/readyz");
        assert!(unready.starts_with("HTTP/1.1 503"), "{unready}");
        assert!(unready.contains("unready: index cold"));
        ready_flag.store(true, Ordering::SeqCst);
        let ready = get(addr, "/readyz");
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        assert!(ready.contains("ready: index warm"));
        server.shutdown();
    }

    #[test]
    fn traces_routes_serve_store_contents() {
        use std::time::Duration as D;
        let mut trace = crate::QueryTrace::new("request");
        trace.stage("queue_wait", D::from_micros(7));
        trace.finish(D::from_millis(1));
        crate::trace_store().keep(crate::StoredTrace {
            trace_id: 0xABCD,
            unix_micros: 1,
            opcode: "range".into(),
            status: "OK".into(),
            total: D::from_millis(1),
            queue_wait: D::from_micros(7),
            keep_reason: crate::KeepReason::Forced,
            trace,
        });
        let server = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr();

        let list = get(addr, "/traces");
        assert!(list.starts_with("HTTP/1.1 200"), "{list}");
        assert!(list.contains("000000000000abcd"), "{list}");

        let one = get(addr, "/traces/000000000000abcd");
        assert!(one.starts_with("HTTP/1.1 200"), "{one}");
        assert!(one.contains("queue_wait"), "{one}");

        let missing = get(addr, "/traces/00000000deadbeef");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let bad = get(addr, "/traces/not-an-id");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        server.shutdown();
    }

    #[test]
    fn prerender_hook_runs_before_scrape() {
        let hook_ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&hook_ran);
        let server = serve_with(
            "127.0.0.1:0",
            ServeOptions {
                prerender: Some(Arc::new(move || flag.store(true, Ordering::SeqCst))),
                readiness: None,
            },
        )
        .unwrap();
        let _ = get(server.local_addr(), "/metrics");
        assert!(hook_ran.load(Ordering::SeqCst));
        server.shutdown();
    }

    #[test]
    fn rejects_non_get() {
        let server = serve_with("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }
}
