//! Closed-loop load generator for the network query server. N client
//! threads each run a fixed budget of range queries back-to-back over their
//! own connection ([`run_level`]). Two drivers share it: `repro serve-load
//! --connect ADDR` sweeps N against an already-running `mmdbctl serve`
//! (CI's load generator), and `repro trace-overhead` self-hosts one server
//! per trace-keep threshold (EXPERIMENTS S2). Serving
//! throughput, tail latency, shard fan-out and telemetry cost are measured
//! by `benchmark/` (`bash benchmark/run.sh`), not here.

use mmdbms::datagen::helmets::HelmetGenerator;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, ClientError, QueryServer, RangeRequest, ServerConfig, Status};
use mmdbms::MultimediaDatabase;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// CSV header for [`LoadPoint::csv_row`].
pub const LOAD_HEADERS: [&str; 10] = [
    "scenario",
    "concurrency",
    "requests",
    "ok",
    "overloaded",
    "deadline_exceeded",
    "qps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
];

/// Load-generator shape: how hard to push, and (for `trace-overhead`) how
/// much data to self-host.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Binary base images in the self-hosted database.
    pub base_images: usize,
    /// Edited variants generated per base image.
    pub augment: usize,
    /// Master seed (dataset and query mix).
    pub seed: u64,
    /// The concurrency sweep: one measurement per client count.
    pub concurrency_levels: Vec<usize>,
    /// Closed-loop request budget per client thread.
    pub queries_per_client: usize,
}

impl LoadConfig {
    /// The default sweep.
    pub fn default_sweep() -> Self {
        LoadConfig {
            base_images: 40,
            augment: 3,
            seed: 42,
            concurrency_levels: vec![1, 2, 4, 8, 16],
            queries_per_client: 150,
        }
    }

    /// A reduced configuration for CI and `--fast`.
    pub fn fast() -> Self {
        LoadConfig {
            base_images: 12,
            augment: 2,
            seed: 42,
            concurrency_levels: vec![1, 2, 4],
            queries_per_client: 40,
        }
    }
}

/// One measured concurrency level.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Which driver produced the point (`sweep`, or a tracing-mode label).
    pub scenario: &'static str,
    /// Client threads driving the closed loop.
    pub concurrency: usize,
    /// Requests issued (and answered — the loop is closed).
    pub requests: usize,
    /// Requests answered `OK`.
    pub ok: usize,
    /// Requests refused by admission control.
    pub overloaded: usize,
    /// Requests whose deadline expired in queue.
    pub deadline_exceeded: usize,
    /// Completed requests per second of wall-clock time.
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

impl LoadPoint {
    /// The row matching [`LOAD_HEADERS`].
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.scenario.to_string(),
            self.concurrency.to_string(),
            self.requests.to_string(),
            self.ok.to_string(),
            self.overloaded.to_string(),
            self.deadline_exceeded.to_string(),
            format!("{:.1}", self.qps),
            format!("{:.3}", self.p50_ms),
            format!("{:.3}", self.p95_ms),
            format!("{:.3}", self.p99_ms),
        ]
    }
}

/// Builds the self-hosted helmet database the `trace-overhead` servers front.
fn build_database(cfg: &LoadConfig) -> Arc<MultimediaDatabase> {
    let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
    let generator = HelmetGenerator::with_seed(cfg.seed);
    for i in 0..cfg.base_images as u64 {
        let image = generator.generate(i);
        db.insert_image_with_augmentation(
            &image,
            cfg.augment,
            mmdbms::datagen::VariantConfig::default(),
            cfg.seed ^ i,
        )
        .expect("load-gen dataset insert");
    }
    Arc::new(db)
}

/// Tiny deterministic generator for the query mix (no `rand` needed here;
/// the split-mix constants give a uniform-enough bin spread).
struct QueryMix {
    state: u64,
}

impl QueryMix {
    fn new(seed: u64) -> Self {
        QueryMix {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    fn next_request(&mut self) -> RangeRequest {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let bin = (self.state >> 32) % 64;
        let plan = match self.state % 4 {
            0 => PlanKind::Rbm,
            1 => PlanKind::Bwm,
            _ => PlanKind::Indexed,
        };
        RangeRequest {
            plan,
            profile: ProfileKind::Conservative,
            bin: bin as u32,
            pct_min: 0.05,
            pct_max: 1.0,
        }
    }
}

/// Runs one closed-loop measurement at `concurrency` clients against a
/// running server. Every request is answered (OK or a structured error);
/// transport or protocol failures abort the run.
pub fn run_level(
    addr: SocketAddr,
    scenario: &'static str,
    concurrency: usize,
    queries_per_client: usize,
    deadline_ms: u32,
    seed: u64,
) -> LoadPoint {
    let barrier = Arc::new(Barrier::new(concurrency + 1));
    let workers: Vec<_> = (0..concurrency)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("load-gen connect");
                let mut mix = QueryMix::new(seed ^ (c as u64 + 1));
                let mut latencies_ms = Vec::with_capacity(queries_per_client);
                let (mut ok, mut overloaded, mut deadline_exceeded) = (0usize, 0usize, 0usize);
                barrier.wait();
                for _ in 0..queries_per_client {
                    let request = mix.next_request();
                    let start = Instant::now();
                    match client.range_with_deadline(request, deadline_ms) {
                        Ok(_) => ok += 1,
                        Err(ClientError::Server {
                            status: Status::Overloaded,
                            ..
                        }) => overloaded += 1,
                        Err(ClientError::Server {
                            status: Status::DeadlineExceeded,
                            ..
                        }) => deadline_exceeded += 1,
                        Err(other) => panic!("load-gen client {c}: {other}"),
                    }
                    latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                (latencies_ms, ok, overloaded, deadline_exceeded)
            })
        })
        .collect();

    barrier.wait();
    let wall_start = Instant::now();
    let mut latencies_ms = Vec::with_capacity(concurrency * queries_per_client);
    let (mut ok, mut overloaded, mut deadline_exceeded) = (0usize, 0usize, 0usize);
    for handle in workers {
        let (lats, o, ov, de) = handle.join().expect("load-gen client panicked");
        latencies_ms.extend(lats);
        ok += o;
        overloaded += ov;
        deadline_exceeded += de;
    }
    let wall = wall_start.elapsed().as_secs_f64().max(1e-9);

    latencies_ms.sort_by(f64::total_cmp);
    let requests = latencies_ms.len();
    LoadPoint {
        scenario,
        concurrency,
        requests,
        ok,
        overloaded,
        deadline_exceeded,
        qps: requests as f64 / wall,
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (sorted_ms.len() as f64 * q).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// The concurrency sweep against an already-running server (`repro
/// serve-load --connect`; CI's smoke jobs use it as their load generator).
pub fn run_sweep_against(addr: SocketAddr, cfg: &LoadConfig) -> Vec<LoadPoint> {
    cfg.concurrency_levels
        .iter()
        .map(|&n| run_level(addr, "sweep", n, cfg.queries_per_client, 0, cfg.seed))
        .collect()
}

/// CSV header for [`TraceOverheadPoint::csv_row`].
pub const TRACE_OVERHEAD_HEADERS: [&str; 9] = [
    "trace_mode",
    "concurrency",
    "requests",
    "kept_traces",
    "qps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "qps_vs_off_pct",
];

/// One trace-keep threshold measured against the identical workload.
#[derive(Clone, Debug)]
pub struct TraceOverheadPoint {
    /// Row label (`trace-off`, `trace-tail`, `trace-full`, `tail-capture`).
    pub label: &'static str,
    /// Traces retained by the tail sampler during the run.
    pub kept_traces: usize,
    /// Throughput relative to the `off` baseline, percent (100 = equal).
    pub qps_vs_off_pct: f64,
    /// The underlying load measurement.
    pub point: LoadPoint,
}

impl TraceOverheadPoint {
    /// The row matching [`TRACE_OVERHEAD_HEADERS`].
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.label.to_string(),
            self.point.concurrency.to_string(),
            self.point.requests.to_string(),
            self.kept_traces.to_string(),
            format!("{:.1}", self.point.qps),
            format!("{:.3}", self.point.p50_ms),
            format!("{:.3}", self.point.p95_ms),
            format!("{:.3}", self.point.p99_ms),
            format!("{:.1}", self.qps_vs_off_pct),
        ]
    }
}

/// Measures the serving cost of request tracing: the same closed-loop
/// workload against self-hosted servers that differ only in
/// [`ServerConfig::trace_keep`]: unreachable (`trace-off`), the default
/// (`trace-tail`) and zero (`trace-full`, 100% retention with stage trees).
/// The off and tail arms run the same code unless a request is slow,
/// errored or sampled; `full` quantifies what always-on retention costs. A
/// fourth `tail-capture` arm pins the threshold to the off-run's p99,
/// demonstrating that the store captures (roughly) the slowest 1% of
/// requests without being told which ones in advance.
pub fn run_trace_overhead(cfg: &LoadConfig) -> Vec<TraceOverheadPoint> {
    let db = build_database(cfg);
    let concurrency = cfg.concurrency_levels.iter().copied().max().unwrap_or(8);
    let run_mode = |label, trace_keep| {
        mmdbms::telemetry::trace_store().clear();
        let server = QueryServer::bind(
            "127.0.0.1:0",
            Arc::<MultimediaDatabase>::clone(&db) as Arc<dyn mmdbms::server::QueryBackend>,
            ServerConfig {
                trace_keep,
                ..ServerConfig::default()
            },
        )
        .expect("bind trace-overhead server");
        // A short unmeasured warm pass so lazy structures (bound index,
        // raster cache) are identical across the measured runs.
        run_level(server.local_addr(), "warm", 2, 20, 0, cfg.seed ^ 0xBEEF);
        let point = run_level(
            server.local_addr(),
            label,
            concurrency,
            cfg.queries_per_client,
            0,
            cfg.seed,
        );
        let kept_traces = mmdbms::telemetry::trace_store().len();
        server.shutdown();
        TraceOverheadPoint {
            label,
            kept_traces,
            qps_vs_off_pct: 0.0,
            point,
        }
    };

    let mut out = vec![
        run_mode("trace-off", Duration::MAX),
        run_mode("trace-tail", ServerConfig::default().trace_keep),
        run_mode("trace-full", Duration::ZERO),
    ];
    // Capture arm: keep threshold = the off-run's p99, so the tail store
    // should retain roughly the slowest 1% of the 0-deadline workload.
    let p99_off = out[0].point.p99_ms;
    out.push(run_mode(
        "tail-capture",
        Duration::from_secs_f64(p99_off / 1e3),
    ));

    let baseline = out[0].point.qps.max(1e-9);
    for p in &mut out {
        p.qps_vs_off_pct = 100.0 * p.point.qps / baseline;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indexing() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn trace_overhead_covers_all_modes() {
        let cfg = LoadConfig {
            base_images: 4,
            augment: 1,
            seed: 9,
            concurrency_levels: vec![2],
            queries_per_client: 10,
        };
        let points = run_trace_overhead(&cfg);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "trace-off");
        assert_eq!(points[0].kept_traces, 0, "off must keep nothing");
        assert_eq!(points[2].label, "trace-full");
        assert!(
            points[2].kept_traces > 0,
            "full retention must keep every trace"
        );
        // The capture arm's kept count is workload-dependent (at this tiny
        // scale the p99 is the max, which a rerun may never exceed), so it
        // is not asserted.
        assert_eq!(points[3].label, "tail-capture");
        assert!((points[0].qps_vs_off_pct - 100.0).abs() < 1e-9);
    }
}
