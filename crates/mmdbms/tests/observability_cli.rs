//! End-to-end tests of the observability surface of `mmdbctl`: the
//! exposition server, the flight-recorder dump, the latency leaderboard,
//! and the JSON trace output.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn mmdbctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmdbctl"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = mmdbctl(args);
    assert!(
        out.status.success(),
        "mmdbctl {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdbctl_obs_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn seed_db(tag: &str) -> PathBuf {
    let db = temp_db(tag);
    let db_s = db.to_str().unwrap();
    ok(&["create", "--db", db_s]);
    ok(&[
        "gen",
        "--db",
        db_s,
        "--collection",
        "flags",
        "--count",
        "4",
        "--augment",
        "2",
    ]);
    db
}

/// Kills the child even when an assertion unwinds mid-test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn serve_exposes_metrics_events_and_healthz() {
    let db = seed_db("serve");
    let db_s = db.to_str().unwrap();

    // Port 0: the kernel picks free ports; the exposition sidecar is bound
    // before the warmup and announces itself on stderr.
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_mmdbctl"))
            .args([
                "serve",
                "--db",
                db_s,
                "--listen",
                "127.0.0.1:0",
                "--metrics",
                "127.0.0.1:0",
                "--warmup",
                "3",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve spawns"),
    );
    // Held to the end of the test so the server's stderr stays open.
    let mut stderr = BufReader::new(child.0.stderr.take().expect("stderr piped"));
    let mut first_line = String::new();
    stderr
        .read_line(&mut first_line)
        .expect("server announces its address");
    let addr = first_line
        .trim()
        .strip_prefix("metrics on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {first_line:?}"))
        .to_string();

    assert!(http_get(&addr, "/healthz").contains("ok"));
    // The address is announced before the warmup runs; `/readyz` flips to
    // 200 once its queries have landed and the query port is bound.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !http_get(&addr, "/readyz").starts_with("HTTP/1.1 200") {
        assert!(std::time::Instant::now() < deadline, "never became ready");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let metrics = http_get(&addr, "/metrics");
    for series in [
        r#"mmdb_query_range_latency_seconds_bucket{plan="rbm",le="+Inf"}"#,
        r#"mmdb_query_range_latency_seconds_bucket{plan="bwm",le="+Inf"}"#,
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    // The warmup queries must have landed in both plans' histograms.
    for plan in ["rbm", "bwm"] {
        let count_line = format!(r#"mmdb_query_range_latency_seconds_count{{plan="{plan}"}} "#);
        let value = metrics
            .lines()
            .find_map(|l| l.strip_prefix(count_line.as_str()))
            .unwrap_or_else(|| panic!("no {count_line} line"));
        assert!(
            value.trim().parse::<u64>().unwrap() > 0,
            "{plan} histogram is empty"
        );
    }

    let events = http_get(&addr, "/events");
    assert!(events.contains(r#""kind": "query_end""#), "{events}");

    // Non-GET is rejected; unknown paths 404.
    assert!(http_get(&addr, "/nope").contains("404"));

    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn events_dumps_flight_recorder_json() {
    let db = seed_db("events");
    let db_s = db.to_str().unwrap();
    let out = ok(&["events", "--db", db_s, "--warmup", "2", "--limit", "6"]);
    assert!(out.contains(r#""events""#), "{out}");
    assert!(out.contains(r#""kind": "query_start""#), "{out}");
    assert!(out.contains(r#""kind": "query_end""#), "{out}");
    // --limit caps the dump.
    let entries = out.matches(r#""seq""#).count();
    assert!(entries <= 6, "expected at most 6 events, saw {entries}");
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn top_prints_percentile_leaderboard() {
    let db = seed_db("top");
    let db_s = db.to_str().unwrap();
    let out = ok(&["top", "--db", db_s, "--queries", "5"]);
    assert!(out.contains("p50") && out.contains("p99"), "{out}");
    assert!(
        out.contains(r#"mmdb_query_range_latency_seconds{plan="rbm"}"#),
        "{out}"
    );
    assert!(
        out.contains(r#"mmdb_query_range_latency_seconds{plan="bwm"}"#),
        "{out}"
    );
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn explain_emits_json_trace() {
    let db = seed_db("explain");
    let db_s = db.to_str().unwrap();
    let out = ok(&[
        "explain", "--db", db_s, "--color", "#ce1126", "--min", "0.1", "--json", "true",
    ]);
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains(r#""root""#), "{out}");
    assert!(out.contains(r#""duration_nanos""#), "{out}");
    // Durations render through the human formatter in the JSON too.
    assert!(out.contains(r#""duration""#), "{out}");
    std::fs::remove_dir_all(&db).ok();
}
