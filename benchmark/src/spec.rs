//! The frozen definition of the benchmark: workloads, their datasets and
//! operation counts, the selective range window, and every metric name with
//! its unit, direction and regression bound. `BENCHMARK.json` is generated
//! from this file (`run.sh --manifest`) and `run.sh --smoke` fails when the
//! two disagree, so a parameter cannot drift through a flag.

use mmdbms::durable::FsyncPolicy;
use std::fmt::Write as _;
use std::time::Duration;

/// Rounds a steady phase measures at least, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 10;

/// The crash image is taken right after this measured round — a fixed point
/// of the operation stream (2,000 writes into `churn_durable`), so what a
/// restart has to recover is the same in every run however many rounds
/// `--seconds` allows.
pub const CRASH_AFTER_ROUNDS: usize = 4;

/// The share of a run's rounds (or chunks) a reported time or rate rests on:
/// a rate is the 90th percentile of the per-round rates, a latency or a cost
/// the 10th percentile of the per-round values. On the shared host this was
/// sized on, the same build's CPU work slows by half for seconds at a time —
/// more than half the rounds of some runs, none of others — and nothing ever
/// makes a round faster than the code allows. The quiet decile holds until
/// nine rounds in ten are disturbed; the median moved 35 % where it moved
/// 12 %.
pub const QUIET: f64 = 0.10;

/// Rounds run and discarded before the steady phase's clock starts: the
/// connection, the allocator. Caches that take longer to fill slow the first
/// measured rounds, which the quiet decile does not rest on.
pub const WARMUP_ROUNDS: usize = 1;

/// Default `--seconds`, and `run_seconds` of `BENCHMARK.json`: how long the
/// steady phase measures.
pub const RUN_SECONDS: u64 = 45;

/// Breaks in the steady phase, evenly spaced over its measured time. In each
/// the run sets up once more (in a directory of its own, torn down again)
/// and restarts from the crash image, so the samples behind `setup_s`,
/// `ingest_per_s` and `recover_ready_s` are spread over the whole run like
/// the rounds: a disturbance shorter than the run leaves some of them quiet.
pub const PAUSES: u32 = 6;

/// Seconds of reopen cycles per break (at least one cycle), each cycle from
/// a pristine copy of the crash image.
pub const RESTART_SECONDS_PER_PAUSE: f64 = 0.4;

/// Images per `ingest_per_s` chunk.
pub const INGEST_CHUNK: usize = 1000;

/// Every n-th wire reply is compared with the in-process answer.
pub const CHECK_EVERY: usize = 64;

/// Queries of the post-steady plan-equivalence check
/// (RBM ≡ BWM ≡ Indexed ⊇ Instantiate).
pub const EQUIVALENCE_QUERIES: usize = 200;

/// Requests replayed step by step in a traced run.
pub const TRACE_REQUESTS: usize = 2000;

pub const VARIANTS_PER_BASE: usize = 4;

/// The `selective` range window `[lo, lo + width]`: `lo` uniform in
/// `[SELECTIVE_LO_MIN, SELECTIVE_LO_MAX]`, bin drawn with the flag palette's
/// own weights. Tuned once (4k bases, seeds 1–2: mean reply 49–50 ids) and
/// frozen.
pub const SELECTIVE_WIDTH: f64 = 0.0025;
pub const SELECTIVE_LO_MIN: f64 = 0.05;
pub const SELECTIVE_LO_MAX: f64 = 0.90;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dataset {
    Selective,
    Paper,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Selective => "selective",
            Dataset::Paper => "paper",
        }
    }
}

/// How the steady phase drives the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Drive {
    /// Indexed range queries over the wire, `window` requests in flight on
    /// one connection.
    Wire { window: usize },
    /// BWM range queries in process through `query_range_with`.
    Scan,
    /// One thread interleaving facade writes with window-1 wire queries.
    Churn,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this workload loads.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// metrics to their bounds. Two of the four are: the driver's time limit
    /// covers every run of every listed workload, and a run has to be about
    /// a minute long to outlast the host's disturbances (see "Why the first
    /// PR 14 benchmark was refused" in `benchmark/README.md`). The other two
    /// run from `run.sh` like these, for paired comparisons.
    pub gated: bool,
    pub dataset: Dataset,
    pub bases: usize,
    pub shards: usize,
    pub fsync: FsyncPolicy,
    pub snapshot_every: u64,
    pub drive: Drive,
    /// Operations per round. The read-only wire workloads use short rounds
    /// (20–30 ms on the 2-core reference box), so that a disturbance spoils
    /// few of them; `scan_paper`'s p90 needs 100 samples (0.3 s); a
    /// `churn_durable` round (0.4 s) must hold its share of group commits
    /// and background snapshots (about 8 and 2), or the quiet decile would
    /// pick the rounds that happened to have none on the
    /// 2-core reference box.
    pub ops_per_round: usize,
}

/// `snapshot_every` of the read-only workloads: the only snapshot is the
/// one `flush` writes at the end of set-up. With the default cadence (4096)
/// the maintenance thread snapshots about nine times during ingest at moments
/// set by its 50 ms tick, and which WAL segments survive into the crash image
/// moved `disk_bytes_per_image` by 6 % between runs of the same code.
/// Background snapshots are `churn_durable`'s subject.
const NO_BACKGROUND_SNAPSHOTS: u64 = u64::MAX;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_1shard",
        why: "selective range queries over the wire on 1 shard: framing, reactor and index lookup do the work; rules, bwm and fan-out do none",
        // `fanout_16shard` runs everything this does, sixteen times over.
        gated: false,
        dataset: Dataset::Selective,
        bases: 4000,
        shards: 1,
        fsync: FsyncPolicy::Never,
        snapshot_every: NO_BACKGROUND_SNAPSHOTS,
        drive: Drive::Wire { window: 8 },
        ops_per_round: 2_000,
    },
    Workload {
        name: "fanout_16shard",
        why: "selective range queries over the wire on 16 shards: framing, reactor, index lookup and the scatter-gather loop do the work; rules and bwm do none",
        gated: true,
        dataset: Dataset::Selective,
        bases: 4000,
        shards: 16,
        fsync: FsyncPolicy::Never,
        snapshot_every: NO_BACKGROUND_SNAPSHOTS,
        drive: Drive::Wire { window: 8 },
        ops_per_round: 800,
    },
    Workload {
        name: "scan_paper",
        why: "the paper's Figure 3/4 setting: in-process BWM scans of default edit sequences; rules, bwm and the storage resolver work, server and index idle",
        gated: true,
        dataset: Dataset::Paper,
        bases: 2000,
        shards: 1,
        fsync: FsyncPolicy::Never,
        snapshot_every: NO_BACKGROUND_SNAPSHOTS,
        drive: Drive::Scan,
        ops_per_round: 100,
    },
    Workload {
        name: "churn_durable",
        why: "25% durable writes interleaved with wire queries on 4 shards: every write forces an index re-sync, WAL and snapshots run beside reads",
        // Its steady phase waits on real fsyncs and background snapshots:
        // what it reads on shared storage is the host's to decide.
        gated: false,
        dataset: Dataset::Selective,
        bases: 4000,
        shards: 4,
        fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
        snapshot_every: 192,
        drive: Drive::Churn,
        ops_per_round: 1_600,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports all nine. The time and rate bounds are the
/// contract's maximum: ten runs of unchanged code spread (quartile distance
/// over median) 1–5 % on the 2-core guest this was sized on, and the host it
/// is judged on is about three times as noisy — see "Observed spread" in
/// `benchmark/README.md`.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_ready_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_image",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// `<module>.<name>`, emitted by a traced run. Definitions are in
/// `benchmark/README.md`; the code that fills each is in `layers.rs`.
pub const PER_LAYER: [Layer; 58] = [
    layer("server.encode_request_ns", "ns", Lower),
    layer("server.decode_request_ns", "ns", Lower),
    layer("server.encode_reply_ns", "ns", Lower),
    layer("server.decode_reply_ns", "ns", Lower),
    layer("server.reply_bytes", "B", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.transport_self_us", "us", Lower),
    layer("server.requests_refused", "count", Lower),
    layer("server.query_p99_us", "us", Lower),
    layer("mmdbms.query_us", "us", Lower),
    layer("mmdbms.fanout_self_us", "us", Lower),
    layer("mmdbms.shards_visited_per_query", "count", Lower),
    layer("mmdbms.shards_with_hits_share", "share", Higher),
    layer("mmdbms.index_sync_us", "us", Lower),
    layer("mmdbms.open_s", "s", Lower),
    layer("mmdbms.flush_s", "s", Lower),
    layer("query.indexed_us", "us", Lower),
    layer("query.bwm_us", "us", Lower),
    layer("query.rbm_us", "us", Lower),
    layer("query.instantiate_us", "us", Lower),
    layer("query.bwm_over_rbm", "ratio", Lower),
    layer("query.results_per_query", "count", Lower),
    layer("query.candidates_per_result", "ratio", Lower),
    layer("boundidx.build_s", "s", Lower),
    layer("boundidx.entries", "count", Lower),
    layer("boundidx.lookup_ns", "ns", Lower),
    layer("boundidx.sync_us", "us", Lower),
    layer("boundidx.sync_recomputed", "count", Lower),
    layer("boundidx.save_s", "s", Lower),
    layer("boundidx.load_s", "s", Lower),
    layer("boundidx.file_bytes", "B", Lower),
    layer("bwm.build_s", "s", Lower),
    layer("bwm.classified_share", "share", Higher),
    layer("bwm.bounds_computed_per_query", "count", Lower),
    layer("bwm.shortcut_emissions_per_query", "count", Higher),
    layer("rules.bounds_ns", "ns", Lower),
    layer("rules.ops_per_sequence", "count", Lower),
    layer("rules.bounds_width_mean", "share", Lower),
    layer("storage.insert_binary_us", "us", Lower),
    layer("storage.insert_edited_us", "us", Lower),
    layer("storage.delete_us", "us", Lower),
    layer("storage.histogram_hit_share", "share", Higher),
    layer("storage.snapshot_s", "s", Lower),
    layer("storage.snapshot_bytes", "B", Lower),
    layer("storage.bytes_per_binary", "B", Lower),
    layer("storage.bytes_per_edited", "B", Lower),
    layer("durable.wal_append_ns", "ns", Lower),
    layer("durable.wal_sync_us", "us", Lower),
    layer("durable.wal_bytes_per_record", "B", Lower),
    layer("durable.replay_records_per_s", "1/s", Higher),
    layer("durable.replayed_records", "count", Lower),
    layer("durable.write_amplification", "ratio", Lower),
    layer("durable.fsck_s", "s", Lower),
    layer("editops.instantiate_us", "us", Lower),
    layer("editops.decode_ns", "ns", Lower),
    layer("histogram.extract_us", "us", Lower),
    layer("telemetry.gate_cost_share", "share", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
