//! README's scrape-side expressions read real series: for a served
//! workload of `N` range requests across plans plus `K` requests with an
//! out-of-range bin, every expression of "Where the server's time goes" and
//! "Workload observatory" is evaluated over two scrapes of the exposition
//! text, with `rate(x[W])` taken as the delta between them.
//!
//! One test, alone in its binary: it reads process-global series as exact
//! deltas.

use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, QueryBackend, QueryServer, RangeRequest, ServerConfig, Status};
use mmdbms::telemetry::global;
use mmdbms::MultimediaDatabase;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One scrape: every sample line of the Prometheus exposition, by series.
fn scrape() -> BTreeMap<String, f64> {
    global()
        .render_prometheus()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("<series> <value>");
            (series.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

/// `rate(series[W])` over the window between two scrapes, as a count.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    let at = |scrape: &BTreeMap<String, f64>| scrape.get(series).copied().unwrap_or(0.0);
    assert!(after.contains_key(series), "{series} is not on /metrics");
    at(after) - at(before)
}

#[test]
fn readme_expressions_read_real_series() {
    const WORKERS: usize = 1;
    let db = MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), 4);
    let flags = FlagGenerator::with_seed(3);
    for i in 0..16 {
        db.insert_image_with_augmentation(&flags.generate(i), 2, VariantConfig::default(), i)
            .unwrap();
    }
    let db = Arc::new(db);
    let hot = db.bin_of(Rgb::new(0xCE, 0x11, 0x26)) as u32;
    let cool = db.bin_of(Rgb::WHITE) as u32;
    let bins = db.quantizer().bin_count() as u32;
    let bad_bins = [bins, bins + 1, u32::MAX];
    let k = bad_bins.len();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn QueryBackend>,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let range = |plan, bin| RangeRequest {
        plan,
        profile: ProfileKind::Conservative,
        bin,
        pct_min: 0.05,
        pct_max: 1.0,
    };
    // The plan mix: (plan, its label, requests on the hot bin, on another).
    let mix = [
        (PlanKind::Instantiate, "instantiate", 1, 1),
        (PlanKind::Rbm, "rbm", 2, 1),
        (PlanKind::Bwm, "bwm", 3, 1),
        (PlanKind::Indexed, "indexed", 5, 1),
    ];
    let n: usize = mix.iter().map(|&(_, _, h, c)| h + c).sum();

    let before = scrape();
    let started = Instant::now();
    for &(plan, _, on_hot, on_cool) in &mix {
        for _ in 0..on_hot {
            client.range(range(plan, hot)).unwrap();
        }
        for _ in 0..on_cool {
            client.range(range(plan, cool)).unwrap();
        }
    }
    for bad in bad_bins {
        let err = client.range(range(PlanKind::Bwm, bad)).unwrap_err();
        assert_eq!(err.status(), Some(Status::BadRequest), "bin {bad}");
    }
    let wall = started.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();
    let after = scrape();
    let d = |series: &str| delta(&before, &after, series);

    // Error burn: numerator and denominator.
    assert_eq!(d(r#"mmdb_server_errors_total{opcode="range"}"#), k as f64);
    assert_eq!(
        d(r#"mmdb_server_requests_total{opcode="range"}"#),
        (n + k) as f64
    );

    // Latency burn: every `le` bound of the range latency histogram, whose
    // window counts are cumulative (monotone in `le`) and end at `_count`.
    let prefix = r#"mmdb_server_request_latency_seconds_bucket{opcode="range",le=""#;
    let mut buckets: Vec<(f64, f64)> = after
        .keys()
        .filter_map(|series| {
            let le = series.strip_prefix(prefix)?.strip_suffix("\"}")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            Some((bound, d(series)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(buckets.len(), 16, "15 bounds and +Inf");
    assert!(
        buckets.windows(2).all(|w| w[0].1 <= w[1].1),
        "cumulative buckets are monotone: {buckets:?}"
    );
    let count = d(r#"mmdb_server_request_latency_seconds_count{opcode="range"}"#);
    assert_eq!(count, (n + k) as f64);
    assert_eq!(buckets.last().unwrap().1, count);
    for &(_, good) in &buckets {
        let burn = (1.0 - good / count) / (1.0 - 0.99);
        assert!((0.0..=100.0).contains(&burn), "burn {burn}");
    }

    // Busy and idle shares: every executed request, including the refused
    // bins, is timed once; no opcode can be busier than the workers.
    assert_eq!(
        d(r#"mmdb_server_execute_seconds_count{opcode="range"}"#),
        (n + k) as f64
    );
    let busy: Vec<f64> = ["ping", "range", "knn", "lookup", "stats"]
        .iter()
        .map(|op| {
            d(&format!(
                r#"mmdb_server_execute_seconds_sum{{opcode="{op}"}}"#
            ))
        })
        .collect();
    assert!(busy[1] > 0.0);
    let idle_share = 1.0 - busy.iter().sum::<f64>() / wall / WORKERS as f64;
    assert!((0.0..1.0).contains(&idle_share), "idle share {idle_share}");

    // Queue-bound time: every executed request waited (briefly) once.
    assert_eq!(d("mmdb_server_queue_wait_seconds_count"), (n + k) as f64);
    assert!(after.contains_key("mmdb_server_queue_depth"));

    // Time per plan: the latency sums grew and the counts match the mix.
    for &(_, label, on_hot, on_cool) in &mix {
        let count = format!(r#"mmdb_query_range_latency_seconds_count{{plan="{label}"}}"#);
        let sum = format!(r#"mmdb_query_range_latency_seconds_sum{{plan="{label}"}}"#);
        assert_eq!(d(&count), (on_hot + on_cool) as f64, "{label}");
        assert!(d(&sum) > 0.0, "{label}");
    }

    // Demand: the top cell of the window is the hammered bin under the
    // plan it was hammered with, and the cells sum to the served requests
    // (an out-of-range bin is refused by the backend, not the admission
    // edge, so it is not demand).
    let demand: Vec<(f64, &String)> = after
        .keys()
        .filter(|series| series.starts_with("mmdb_query_range_demand_total{"))
        .map(|series| (d(series), series))
        .collect();
    let top = demand.iter().max_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
    assert_eq!(
        top.1,
        &format!(r#"mmdb_query_range_demand_total{{bin="{hot}",plan="indexed"}}"#)
    );
    assert_eq!(demand.iter().map(|&(v, _)| v).sum::<f64>(), n as f64);
}
