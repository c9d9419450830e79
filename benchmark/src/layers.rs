//! The traced run: per-layer metrics measured from outside, by timing calls
//! into each layer's public functions, and a span file for the replayed
//! requests. Nothing inside the program is instrumented; where the facade
//! hides a layer (its per-shard indexes and BWM structures are private) the
//! benchmark builds its own copy from the same public constructors.
//!
//! Definitions of every name are in `benchmark/README.md`.

use crate::dataset::{base_image, selective_variant, HEIGHT, WIDTH};
use crate::recover::{crash_image, engine_dirs};
use crate::report::{Metric, Report};
use crate::requests::{wire_request, Stream};
use crate::rng::Rng;
use crate::spec::{Drive, Workload, PER_LAYER, TRACE_REQUESTS};
use crate::stage::{durability, plan_of, scaled, Stage, PROFILE};
use crate::steady::{ops_per_round, sorted_raw};
use crate::sys::{copy_dir, dir_bytes, mean, median, midmean, quantile_ns, remove_dir, Pinned};
use crate::trace::Recorder;
use crate::wire::{run_window, Conn};
use crate::Args;
use mmdbms::boundidx::{persist, BoundIndex};
use mmdbms::bwm::{BwmStructure, QueryOutcome};
use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::durable::{fsck_dir, DurableError, SnapshotStore, Wal, WalOptions};
use mmdbms::editops::{codec, EditSequence, ExecOptions, ImageId, InstantiationEngine};
use mmdbms::histogram::ColorHistogram;
use mmdbms::imaging::ppm;
use mmdbms::query::{QueryPlan, QueryProcessor};
use mmdbms::rules::{ColorRangeQuery, RuleEngine};
use mmdbms::server::protocol::{
    decode_request, decode_response, encode_ok, encode_request, Opcode, RangeReply, RangeRequest,
    ReplyBody, Request, RequestBody,
};
use mmdbms::storage::{durability::decode_record, StorageEngine, WalRecord};
use mmdbms::MultimediaDatabase;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Queries sampled for the plans that scan the catalog.
const BWM_SAMPLE: usize = 200;
const RBM_SAMPLE: usize = 100;
const INSTANTIATE_SAMPLE: usize = 4;
/// Sequences and rasters sampled for the per-call layer costs.
const CALL_SAMPLE: usize = 200;
/// Writes behind each mutation-driven metric.
const MUTATIONS: usize = 32;
/// Units (1 base + 4 variants) appended to the scratch WAL.
const WAL_UNITS: usize = 400;
/// Rounds per arm of the two overhead comparisons.
const ARM_ROUNDS: usize = 3;

type Values = BTreeMap<&'static str, f64>;

/// Runs `f`, returns its result and duration in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_nanos() as f64)
}

/// What `timed` reports for an empty closure: subtracted from the typical
/// time of nanosecond-scale calls.
fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2000).map(|_| timed(|| ()).1).collect();
    midmean(&samples)
}

/// Typical time of a nanosecond-scale call: the mid-mean of its timings
/// less the clock's own cost.
fn small_ns(samples: &[f64], clock_ns: f64) -> f64 {
    (midmean(samples) - clock_ns).max(0.1)
}

/// The benchmark's own per-shard copies of the structures the facade keeps
/// private, built with the same public constructors the facade calls.
struct ShardView<'a> {
    storage: &'a StorageEngine,
    bwm: BwmStructure,
    index: BoundIndex,
}

impl ShardView<'_> {
    /// One shard's slice of `query`, through the public executor.
    fn execute(&self, plan: QueryPlan, query: &ColorRangeQuery) -> Result<QueryOutcome, String> {
        let qp = QueryProcessor::with_profile(self.storage, PROFILE);
        match plan {
            QueryPlan::Indexed => qp.range_indexed_with(&self.index, query),
            QueryPlan::Bwm => qp.range_bwm_with(&self.bwm, query),
            QueryPlan::Rbm => qp.range_rbm(query),
            QueryPlan::Instantiate => qp.range_instantiate(query),
        }
        .map_err(|e| e.to_string())
    }
}

fn build_views<'a>(
    db: &'a MultimediaDatabase,
    v: &mut Values,
) -> Result<Vec<ShardView<'a>>, String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut views = Vec::with_capacity(db.shard_count());
    let (mut bwm_ns, mut index_ns) = (0.0, 0.0);
    for shard in 0..db.shard_count() {
        let storage = db.shard_storage(shard);
        let epoch = storage.current_epoch();
        let (binary, edited) = (storage.binary_ids(), storage.edited_ids());
        let (bwm, ns) = timed(|| BwmStructure::build(binary.clone(), edited.clone(), storage));
        bwm_ns += ns;
        let (index, ns) = timed(|| {
            BoundIndex::build(
                PROFILE,
                storage.quantizer(),
                storage.background(),
                &binary,
                &edited,
                storage,
                storage,
                epoch,
                threads,
            )
        });
        index_ns += ns;
        views.push(ShardView {
            storage,
            bwm,
            index: index.map_err(|e| e.to_string())?,
        });
    }
    let classified: usize = views.iter().map(|s| s.bwm.classified_count()).sum();
    let unclassified: usize = views.iter().map(|s| s.bwm.unclassified_count()).sum();
    v.insert("bwm.build_s", bwm_ns / 1e9);
    v.insert(
        "bwm.classified_share",
        classified as f64 / (classified + unclassified).max(1) as f64,
    );
    v.insert("boundidx.build_s", index_ns / 1e9);
    v.insert(
        "boundidx.entries",
        views.iter().map(|s| s.index.len()).sum::<usize>() as f64,
    );
    Ok(views)
}

/// Replays `queries` step by step — encode → decode → facade query →
/// per-shard executors → encode → decode — one span per public call, then
/// sends the same request over the wire at window 1.
#[allow(clippy::too_many_arguments)]
fn replay(
    w: &Workload,
    db: &MultimediaDatabase,
    views: &[ShardView<'_>],
    conn: &mut Conn,
    queries: &[ColorRangeQuery],
    clock_ns: f64,
    spans: &mut Recorder,
    v: &mut Values,
) -> Result<u64, String> {
    let plan = plan_of(w.drive);
    let version = conn.version();
    let n = queries.len();
    let mut ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rtt_ns: Vec<u64> = Vec::with_capacity(n);
    let (mut reply_bytes, mut results, mut shards_hit, mut refused, mut failed) =
        (0, 0, 0, 0, 0u64);

    for (i, query) in queries.iter().enumerate() {
        let trace = i as u64 + 1;
        let root_start = spans.now();
        let root = spans.push(trace, None, "request", root_start, root_start);
        let request = Request {
            id: trace,
            deadline_ms: 0,
            trace: None,
            body: RequestBody::Range(wire_request(query, plan)),
        };
        let (payload, took) = spans.span(trace, Some(root), "encode_request", || {
            encode_request(&request, version)
        });
        ns.entry("encode_request").or_default().push(took as f64);
        let (decoded, took) = spans.span(trace, Some(root), "decode_request", || {
            decode_request(&payload, version)
        });
        ns.entry("decode_request").or_default().push(took as f64);
        if decoded.ok().as_ref() != Some(&request) {
            failed += 1;
        }

        let facade_start = spans.now();
        let outcome = db.query_range_with(query, plan, PROFILE);
        let facade_end = spans.now();
        let facade = spans.push(
            trace,
            Some(root),
            "query_range_with",
            facade_start,
            facade_end,
        );
        ns.entry("facade")
            .or_default()
            .push((facade_end - facade_start) as f64);
        let outcome = outcome.map_err(|e| e.to_string())?;

        // The shard executors are private to the facade, so each shard's
        // slice is re-run here and laid back to back from the parent's
        // start; the parent's self time is then the fan-out loop itself.
        let mut cursor = facade_start;
        let mut shard_total = 0.0;
        let mut merged: Vec<ImageId> = Vec::with_capacity(outcome.results.len());
        for (s, view) in views.iter().enumerate() {
            let (out, took) = timed(|| view.execute(plan, query));
            let out = out?;
            let took = took as u64;
            spans.push(
                trace,
                Some(facade),
                format!("shard{s}.range_{plan}"),
                cursor,
                cursor + took,
            );
            cursor += took;
            shard_total += took as f64;
            shards_hit += usize::from(!out.results.is_empty());
            merged.extend(out.results);
        }
        ns.entry("shards").or_default().push(shard_total);
        let expected = sorted_raw(&outcome.results);
        if sorted_raw(&merged) != expected {
            failed += 1;
        }

        let reply = ReplyBody::Range(RangeReply {
            ids: outcome.results.iter().map(|id| id.raw()).collect(),
            bounds_computed: outcome.stats.bounds_computed as u64,
            shortcut_emissions: outcome.stats.shortcut_emissions as u64,
        });
        let (bytes, took) = spans.span(trace, Some(root), "encode_ok", || {
            encode_ok(trace, None, &reply, version)
        });
        ns.entry("encode_reply").or_default().push(took as f64);
        let (decoded, took) = spans.span(trace, Some(root), "decode_response", || {
            decode_response(&bytes, Opcode::Range, version)
        });
        ns.entry("decode_reply").or_default().push(took as f64);
        if decoded.is_err() {
            failed += 1;
        }
        reply_bytes += bytes.len();
        results += outcome.results.len();
        let root_end = spans.now();
        spans.close(root, root_end);

        let wire_start = spans.now();
        let (answer, rtt) = conn
            .range(wire_request(query, plan))
            .map_err(|e| format!("wire replay: {e}"))?;
        spans.push(trace, None, "wire_range_window1", wire_start, spans.now());
        rtt_ns.push(rtt.as_nanos() as u64);
        match answer {
            Ok(mut ids) => {
                ids.sort_unstable();
                if ids != expected {
                    failed += 1;
                }
            }
            Err(_) => {
                refused += 1;
                failed += 1;
            }
        }
    }

    let med = |ns: &BTreeMap<&str, Vec<f64>>, key: &str| median(&ns[key]);
    let small = |key: &str| small_ns(&ns[key], clock_ns);
    v.insert("server.encode_request_ns", small("encode_request"));
    v.insert("server.decode_request_ns", small("decode_request"));
    v.insert("server.encode_reply_ns", small("encode_reply"));
    v.insert("server.decode_reply_ns", small("decode_reply"));
    let codec_us = [
        "encode_request",
        "decode_request",
        "encode_reply",
        "decode_reply",
    ]
    .iter()
    .map(|k| small(k))
    .sum::<f64>()
        / 1e3;
    let facade_us = med(&ns, "facade") / 1e3;
    let shards_us = med(&ns, "shards") / 1e3;
    let rtt_us = quantile_ns(&mut rtt_ns, 0.50) / 1e3;
    v.insert("server.reply_bytes", reply_bytes as f64 / n as f64);
    v.insert("server.requests_refused", refused as f64);
    v.insert("server.query_p99_us", quantile_ns(&mut rtt_ns, 0.99) / 1e3);
    v.insert("server.transport_self_us", rtt_us - codec_us - facade_us);
    v.insert("mmdbms.query_us", facade_us);
    v.insert("mmdbms.fanout_self_us", facade_us - shards_us);
    // Every range query visits every shard today; nothing outside the
    // facade can see a skipped shard until the facade reports one.
    v.insert("mmdbms.shards_visited_per_query", views.len() as f64);
    v.insert(
        "mmdbms.shards_with_hits_share",
        shards_hit as f64 / (n * views.len()) as f64,
    );
    v.insert("query.results_per_query", results as f64 / n as f64);
    let parts = v["server.transport_self_us"] + codec_us + v["mmdbms.fanout_self_us"] + shards_us;
    println!(
        "budget: window-1 RTT {rtt_us:.2} us = transport {:.2} + codec {codec_us:.2} + fan-out self {:.2} + shard executors {shards_us:.2} (residual {:+.1}%)",
        v["server.transport_self_us"],
        v["mmdbms.fanout_self_us"],
        (rtt_us - parts) / rtt_us * 100.0
    );
    Ok(failed)
}

/// Whole-catalog executor time of each plan: the sum of the per-shard
/// executors, median over a sample sized to the plan's cost.
fn plans(
    db: &MultimediaDatabase,
    views: &[ShardView<'_>],
    queries: &[ColorRangeQuery],
    scale: usize,
    workload_plan: QueryPlan,
    v: &mut Values,
) -> Result<(), String> {
    let run = |plan: QueryPlan, sample: usize| -> Result<(Vec<f64>, Vec<QueryOutcome>), String> {
        let mut times = Vec::with_capacity(sample);
        let mut outcomes = Vec::with_capacity(sample);
        for query in queries.iter().take(sample) {
            let mut total = 0.0;
            let mut merged = QueryOutcome::default();
            for view in views {
                let (out, ns) = timed(|| view.execute(plan, query));
                let out = out?;
                total += ns;
                merged.results.extend(out.results);
                merged.stats.bounds_computed += out.stats.bounds_computed;
                merged.stats.shortcut_emissions += out.stats.shortcut_emissions;
            }
            times.push(total / 1e3);
            outcomes.push(merged);
        }
        Ok((times, outcomes))
    };
    let (indexed, _) = run(QueryPlan::Indexed, queries.len())?;
    let (bwm, bwm_out) = run(QueryPlan::Bwm, scaled(BWM_SAMPLE, scale, 8))?;
    let (rbm, _) = run(QueryPlan::Rbm, scaled(RBM_SAMPLE, scale, 8))?;
    let cache_before = db.stats();
    let (instantiate, exact_out) =
        run(QueryPlan::Instantiate, scaled(INSTANTIATE_SAMPLE, scale, 2))?;
    let cache_after = db.stats();
    let (_, plan_out) = run(workload_plan, exact_out.len())?;

    v.insert("query.indexed_us", median(&indexed));
    v.insert("query.bwm_us", median(&bwm));
    v.insert("query.rbm_us", median(&rbm));
    v.insert("query.instantiate_us", median(&instantiate));
    v.insert("query.bwm_over_rbm", median(&bwm) / median(&rbm));
    let count = |outs: &[QueryOutcome]| outs.iter().map(|o| o.results.len()).sum::<usize>() as f64;
    v.insert(
        "query.candidates_per_result",
        count(&plan_out) / count(&exact_out).max(1.0),
    );
    let bwm_queries = bwm_out.len() as f64;
    let bounds: usize = bwm_out.iter().map(|o| o.stats.bounds_computed).sum();
    let shortcuts: usize = bwm_out.iter().map(|o| o.stats.shortcut_emissions).sum();
    v.insert("bwm.bounds_computed_per_query", bounds as f64 / bwm_queries);
    v.insert(
        "bwm.shortcut_emissions_per_query",
        shortcuts as f64 / bwm_queries,
    );
    let hits = (cache_after.cache_hits - cache_before.cache_hits) as f64;
    let misses = (cache_after.cache_misses - cache_before.cache_misses) as f64;
    v.insert(
        "storage.histogram_hit_share",
        hits / (hits + misses).max(1.0),
    );
    Ok(())
}

/// Per-call costs of the leaf layers over sampled sequences and rasters.
fn calls(
    db: &MultimediaDatabase,
    views: &[ShardView<'_>],
    queries: &[ColorRangeQuery],
    seed: u64,
    clock_ns: f64,
    v: &mut Values,
) -> Result<(), String> {
    let mut rng = Rng::fork(seed, 0xCA11);
    let engine = RuleEngine::with_background(db.quantizer(), PROFILE, db.storage().background());
    let edited = db.edited_ids();
    let binary = db.binary_ids();
    let storage_of = |id: ImageId| db.shard_storage(db.shard_of(id));

    let (mut bounds_ns, mut widths, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    for query in queries {
        let id = edited[rng.below(edited.len() as u64) as usize];
        let storage = storage_of(id);
        let sequence = storage.edit_sequence(id).ok_or("sequence vanished")?;
        let (bounds, ns) = timed(|| engine.bounds(&sequence, query.bin, storage));
        bounds_ns.push(ns);
        widths.push(bounds.map_err(|e| e.to_string())?.fraction_width());
        ops.push(sequence.len() as f64);
    }
    v.insert("rules.bounds_ns", small_ns(&bounds_ns, clock_ns));
    v.insert("rules.ops_per_sequence", mean(&ops));
    v.insert("rules.bounds_width_mean", mean(&widths));

    let lookups: Vec<f64> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| timed(|| views[i % views.len()].index.lookup(query)).1)
        .collect();
    v.insert("boundidx.lookup_ns", small_ns(&lookups, clock_ns));

    let (mut decode_ns, mut instantiate_us, mut extract_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CALL_SAMPLE {
        let id = edited[rng.below(edited.len() as u64) as usize];
        let storage = storage_of(id);
        let sequence = storage.edit_sequence(id).ok_or("sequence vanished")?;
        let bytes = codec::encode(&sequence);
        let (decoded, ns) = timed(|| codec::decode(&bytes));
        decoded.map_err(|e| e.to_string())?;
        decode_ns.push(ns);
        let options = ExecOptions {
            background: storage.background(),
        };
        let (raster, ns) =
            timed(|| InstantiationEngine::with_options(storage, options).instantiate(&sequence));
        raster.map_err(|e| e.to_string())?;
        instantiate_us.push(ns / 1e3);

        let id = binary[rng.below(binary.len() as u64) as usize];
        let raster = storage_of(id).raster(id).map_err(|e| e.to_string())?;
        extract_us.push(timed(|| ColorHistogram::extract(&raster, db.quantizer())).1 / 1e3);
    }
    v.insert("editops.decode_ns", small_ns(&decode_ns, clock_ns));
    v.insert("editops.instantiate_us", median(&instantiate_us));
    v.insert("histogram.extract_us", median(&extract_us));
    Ok(())
}

/// Saves and reloads the benchmark's own indexes with the persistence codec.
fn index_files(views: &[ShardView<'_>], work: &Path, v: &mut Values) -> Result<(), String> {
    let (mut save_ns, mut load_ns, mut bytes) = (0.0, 0.0, 0);
    for (s, view) in views.iter().enumerate() {
        let dir = work.join(format!("boundidx-{s}"));
        let (path, ns) = timed(|| persist::save(&view.index, &dir));
        let path = path.map_err(|e| format!("save index: {e}"))?;
        save_ns += ns;
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let bins = view.storage.quantizer().bin_count();
        let (loaded, ns) = timed(|| persist::load(&dir, PROFILE, bins));
        load_ns += ns;
        if !loaded.is_ok_and(|idx| idx.is_some_and(|idx| idx.len() == view.index.len())) {
            return Err("persisted index did not load back".to_owned());
        }
        remove_dir(&dir);
    }
    v.insert("boundidx.save_s", save_ns / 1e9);
    v.insert("boundidx.load_s", load_ns / 1e9);
    v.insert("boundidx.file_bytes", bytes as f64);
    Ok(())
}

/// One round of the workload's own query path; returns operations per
/// second. With `spans`, one span per operation is recorded inside the
/// timed interval.
fn arm(
    w: &Workload,
    db: &MultimediaDatabase,
    conn: &mut Conn,
    queries: &[ColorRangeQuery],
    spans: Option<&mut Recorder>,
) -> Result<f64, String> {
    let plan = plan_of(w.drive);
    let start = Instant::now();
    let latencies_ns: Vec<u64> = match w.drive {
        Drive::Scan => queries
            .iter()
            .map(|query| {
                let (out, ns) = timed(|| db.query_range_with(query, plan, PROFILE));
                out.map(|_| ns as u64).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?,
        Drive::Wire { .. } | Drive::Churn => {
            let window = match w.drive {
                Drive::Wire { window } => window,
                _ => 1,
            };
            let requests: Vec<RangeRequest> =
                queries.iter().map(|q| wire_request(q, plan)).collect();
            run_window(conn, &requests, window, usize::MAX)
                .map_err(|e| e.to_string())?
                .latencies_ns
        }
    };
    if let Some(spans) = spans {
        let end = spans.now();
        for (i, ns) in latencies_ns.iter().enumerate() {
            spans.push(i as u64, None, "arm.query", end.saturating_sub(*ns), end);
        }
    }
    Ok(queries.len() as f64 / start.elapsed().as_secs_f64())
}

/// Steady rate of the workload's query path under three settings, rounds
/// interleaved: default, instrumentation gate off, client spans on.
fn overheads(
    w: &Workload,
    db: &MultimediaDatabase,
    addr: std::net::SocketAddr,
    stream: &mut Stream,
    ops: usize,
    v: &mut Values,
) -> Result<(), String> {
    let conn = &mut Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut spans = Recorder::new();
    let (mut default, mut gate_off, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ARM_ROUNDS {
        let queries = stream.batch(ops);
        default.push(arm(w, db, conn, &queries, None)?);
        mmdbms::telemetry::set_instrumentation(false);
        let off = arm(w, db, conn, &queries, None);
        mmdbms::telemetry::set_instrumentation(true);
        gate_off.push(off?);
        traced.push(arm(w, db, conn, &queries, Some(&mut spans))?);
    }
    v.insert(
        "telemetry.gate_cost_share",
        1.0 - median(&default) / median(&gate_off),
    );
    v.insert(
        "bench.trace_overhead_share",
        1.0 - median(&traced) / median(&default),
    );
    Ok(())
}

/// Writes through the facade, each followed by the work it forces: the
/// benchmark's own index `sync`, and the facade's next Indexed query.
fn resync(
    db: &MultimediaDatabase,
    views: &mut [ShardView<'_>],
    seed: u64,
    v: &mut Values,
) -> Result<(), String> {
    let mut rng = Rng::fork(seed, 0x5_11C);
    let probe = ColorRangeQuery::at_least(0, 0.5);
    let indexed = |db: &MultimediaDatabase| {
        db.query_range_with(&probe, QueryPlan::Indexed, PROFILE)
            .map_err(|e| e.to_string())
    };
    // Not timed: on `scan_paper` this is the facade's first Indexed query
    // and builds its index.
    indexed(db)?;
    let bases = db.binary_ids();
    let (mut own_us, mut facade_us, mut recomputed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MUTATIONS {
        let base = bases[rng.below(bases.len() as u64) as usize];
        let shard = db.shard_of(base);
        let raster = db.image(base).map_err(|e| e.to_string())?;
        let ops = selective_variant(&mut rng, &raster);
        db.insert_edited(EditSequence::new(base, ops))
            .map_err(|e| e.to_string())?;
        let view = &mut views[shard];
        let storage = view.storage;
        let (stats, ns) = timed(|| {
            let epoch = storage.current_epoch();
            view.index.sync(
                epoch,
                &storage.binary_ids(),
                &storage.edited_ids(),
                storage.quantizer(),
                storage.background(),
                storage,
                storage,
            )
        });
        own_us.push(ns / 1e3);
        recomputed.push(stats.map_err(|e| e.to_string())?.recomputed as f64);
        facade_us.push(timed(|| indexed(db)).1 / 1e3);
    }
    v.insert("boundidx.sync_us", median(&own_us));
    v.insert("boundidx.sync_recomputed", mean(&recomputed));
    v.insert("mmdbms.index_sync_us", median(&facade_us));
    Ok(())
}

/// Snapshot and space of every shard, then the storage engine's own
/// mutation calls on shard 0 (bypassing the facade, so each image written
/// here is deleted again before the function returns).
fn storage(stage: &Stage, seed: u64, v: &mut Values) -> Result<(), String> {
    let db = &*stage.db;
    let (mut snapshot_ns, mut snapshot_bytes) = (0.0, 0);
    for (s, dir) in engine_dirs(&stage.dir, db.shard_count()).iter().enumerate() {
        let (done, ns) = timed(|| db.shard_storage(s).snapshot_now());
        done.map_err(|e| format!("snapshot: {e}"))?;
        snapshot_ns += ns;
        let newest = SnapshotStore::open(&dir.join("snapshots"))
            .and_then(|store| store.list())
            .map_err(|e| e.to_string())?
            .pop();
        snapshot_bytes += newest.map_or(0, |(path, _)| {
            std::fs::metadata(path).map_or(0, |m| m.len())
        });
    }
    v.insert("storage.snapshot_s", snapshot_ns / 1e9);
    v.insert("storage.snapshot_bytes", snapshot_bytes as f64);
    let stats = db.stats();
    v.insert(
        "storage.bytes_per_binary",
        stats.binary_bytes as f64 / stats.binary_count.max(1) as f64,
    );
    v.insert(
        "storage.bytes_per_edited",
        stats.edited_bytes as f64 / stats.edited_count.max(1) as f64,
    );
    v.insert("mmdbms.flush_s", stage.times.flush_s);

    let engine = db.shard_storage(0);
    let flags = FlagGenerator::new(seed ^ 0x570_4A6E, WIDTH, HEIGHT);
    let mut rng = Rng::fork(seed, 0x570_4A6E);
    let (mut binary_us, mut edited_us, mut delete_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..MUTATIONS as u64 {
        let image = base_image(&flags, &mut rng, i);
        let ops = selective_variant(&mut rng, &image);
        let (base, ns) = timed(|| engine.insert_binary(&image));
        let base = base.map_err(|e| e.to_string())?;
        binary_us.push(ns / 1e3);
        let (edited, ns) = timed(|| engine.insert_edited(EditSequence::new(base, ops)));
        let edited = edited.map_err(|e| e.to_string())?;
        edited_us.push(ns / 1e3);
        for id in [edited, base] {
            let (done, ns) = timed(|| engine.delete(id));
            done.map_err(|e| e.to_string())?;
            delete_us.push(ns / 1e3);
        }
    }
    v.insert("storage.insert_binary_us", median(&binary_us));
    v.insert("storage.insert_edited_us", median(&edited_us));
    v.insert("storage.delete_us", median(&delete_us));
    Ok(())
}

/// The WAL alone, on a scratch log fed the records this workload's ingest
/// writes: append, group-commit sync, bytes per record, replay with decode.
fn wal(
    w: &Workload,
    seed: u64,
    scale: usize,
    work: &Path,
    clock_ns: f64,
    v: &mut Values,
) -> Result<(), String> {
    let units = crate::dataset::generate(w.dataset, seed, 0, scaled(WAL_UNITS, scale, 20));
    let mut payloads = Vec::with_capacity(units.len() * 5);
    let mut next_id = 1;
    for unit in &units {
        let base = ImageId::new(next_id);
        let encoded = ppm::encode(&unit.image, ppm::PnmFormat::RawRgb);
        payloads.push(
            WalRecord::InsertBinary {
                id: base,
                width: unit.image.width(),
                height: unit.image.height(),
                ppm: &encoded,
            }
            .encode(),
        );
        next_id += 1;
        for ops in &unit.variants {
            let sequence = EditSequence::new(base, ops.clone());
            payloads.push(
                WalRecord::InsertEdited {
                    id: ImageId::new(next_id),
                    sequence: &sequence,
                }
                .encode(),
            );
            next_id += 1;
        }
    }
    let dir = work.join("wal-probe");
    let options = WalOptions {
        segment_bytes: durability(w).segment_bytes,
        fsync: w.fsync,
    };
    let durable = |e: DurableError| e.to_string();
    let (mut log, _) = Wal::open(&dir, options, 0).map_err(durable)?;
    let (mut append_ns, mut sync_us) = (Vec::new(), Vec::new());
    for (i, payload) in payloads.iter().enumerate() {
        let (seqno, ns) = timed(|| log.append(payload));
        seqno.map_err(durable)?;
        append_ns.push(ns);
        if i % 100 == 99 {
            let (done, ns) = timed(|| log.sync());
            done.map_err(durable)?;
            sync_us.push(ns / 1e3);
        }
    }
    log.sync().map_err(durable)?;
    drop(log);
    v.insert("durable.wal_append_ns", small_ns(&append_ns, clock_ns));
    v.insert("durable.wal_sync_us", median(&sync_us));
    v.insert(
        "durable.wal_bytes_per_record",
        dir_bytes(&dir).map_err(|e| e.to_string())? as f64 / payloads.len() as f64,
    );
    let (mut log, _) = Wal::open(&dir, options, 0).map_err(durable)?;
    let (replayed, ns) = timed(|| {
        log.replay(0, |_, payload| {
            decode_record(payload)
                .map(|_| ())
                .map_err(|e| DurableError::Corrupt(e.to_string()))
        })
    });
    let replayed = replayed.map_err(durable)?;
    if replayed as usize != payloads.len() {
        return Err(format!(
            "WAL replayed {replayed} of {} records",
            payloads.len()
        ));
    }
    v.insert("durable.replay_records_per_s", replayed as f64 / (ns / 1e9));
    drop(log);
    remove_dir(&dir);
    Ok(())
}

/// Crash image of the traced database: fsck it, reopen it.
fn restart(
    w: &Workload,
    stage: &Stage,
    seed: u64,
    work: &Path,
    v: &mut Values,
) -> Result<u64, String> {
    let live = stage.db.ids().into_iter().collect();
    let image = crash_image(w, stage, seed, &live, &work.join("crash"))?;
    let stats = stage.db.stats();
    v.insert(
        "durable.write_amplification",
        image.bytes as f64 / (stats.binary_bytes + stats.edited_bytes).max(1) as f64,
    );
    let mut failed = 0;
    let (_, ns) = timed(|| {
        for dir in engine_dirs(&image.dir, w.shards) {
            failed += u64::from(fsck_dir(&dir).has_errors());
        }
    });
    v.insert("durable.fsck_s", ns / 1e9);
    let copy = work.join("reopen");
    copy_dir(&image.dir, &copy).map_err(|e| e.to_string())?;
    let (db, ns) = timed(|| MultimediaDatabase::open_with(&copy, durability(w)));
    let db = db.map_err(|e| format!("reopen: {e}"))?;
    v.insert("mmdbms.open_s", ns / 1e9);
    v.insert(
        "durable.replayed_records",
        db.recovery_info().map_or(0, |info| info.replayed_records) as f64,
    );
    if db.ids() != image.live {
        failed += 1;
    }
    drop(db);
    remove_dir(&copy);
    remove_dir(&image.dir);
    Ok(failed)
}

pub fn measure(w: &Workload, stage: &Stage, opts: &Args, work: &Path) -> Result<Report, String> {
    let db = &*stage.db;
    let mut v = Values::new();
    let clock_ns = clock_overhead_ns();
    let mut views = build_views(db, &mut v)?;
    // From here on one thread does everything, on the reactor's CPU as in
    // the untraced run.
    let _pinned = Pinned::to_one_cpu();
    let mut stream = Stream::new(w.dataset, opts.seed, db);
    let queries = stream.batch(scaled(TRACE_REQUESTS, opts.scale, 40));
    let addr = stage
        .server
        .as_ref()
        .expect("traced runs bind")
        .local_addr();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;

    let pings: Vec<f64> = (0..queries.len())
        .map(|_| conn.ping().map(|rtt| rtt.as_nanos() as f64 / 1e3))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ping: {e}"))?;
    v.insert("server.ping_rtt_us", median(&pings));

    let mut spans = Recorder::new();
    let mut failed = replay(
        w, db, &views, &mut conn, &queries, clock_ns, &mut spans, &mut v,
    )?;
    let attempted = queries.len() as u64;
    println!(
        "trace: {} requests, {} spans; self time by span name:",
        queries.len(),
        spans.len()
    );
    for (name, (count, self_ns)) in spans.self_times() {
        println!(
            "  {name:<28} {count:>7} spans  {:>10.3} us self each",
            self_ns as f64 / count as f64 / 1e3
        );
    }
    let trace_path = opts.out_dir.join(format!("trace-{}.json", w.name));
    spans
        .write_json(&trace_path, w.name)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("trace: wrote {}", trace_path.display());
    drop(spans);

    plans(db, &views, &queries, opts.scale, plan_of(w.drive), &mut v)?;
    calls(db, &views, &queries, opts.seed, clock_ns, &mut v)?;
    index_files(&views, work, &mut v)?;
    // About 0.2 s of the workload's own queries per arm and round.
    let round = ops_per_round(w, opts.scale);
    let arm_ops = match w.drive {
        Drive::Wire { .. } => round * 8,
        Drive::Scan => round / 2,
        Drive::Churn => round / 4,
    }
    .max(20);
    overheads(w, db, addr, &mut stream, arm_ops, &mut v)?;
    resync(db, &mut views, opts.seed, &mut v)?;
    drop(views);
    storage(stage, opts.seed, &mut v)?;
    wal(w, opts.seed, opts.scale, work, clock_ns, &mut v)?;
    failed += restart(w, stage, opts.seed, work, &mut v)?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            v.remove(m.name)
                .map(|value| Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .ok_or_else(|| format!("{} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(extra) = v.keys().next() {
        return Err(format!(
            "{extra} is measured but not listed in spec::PER_LAYER"
        ));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}
