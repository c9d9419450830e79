//! `mmdbctl` — command-line administration for an on-disk mmdbms database.
//!
//! ```text
//! mmdbctl create --db ./mydb [--quantizer rgb-uniform/4]
//! mmdbctl gen --db ./mydb --collection flags --count 20 --augment 3
//! mmdbctl insert --db ./mydb photo.ppm [--augment 4] [--seed 7]
//! mmdbctl insert-script --db ./mydb variant.edit
//! mmdbctl ls --db ./mydb
//! mmdbctl info --db ./mydb [--id 7]
//! mmdbctl query --db ./mydb --color '#ce1126' --min 0.25 [--max 1.0]
//!               [--plan bwm|rbm|instantiate|indexed] [--expand]
//! mmdbctl explain --db ./mydb --color '#ce1126' --min 0.25 [--plan bwm] [--json true]
//! mmdbctl metrics --db ./mydb [--format prometheus|json]
//! mmdbctl serve --db ./mydb [--listen 127.0.0.1:9190] [--metrics 127.0.0.1:9184]
//!               [--workers N] [--queue-depth N] [--warmup N]
//!               [--trace-keep-ms MS]
//! mmdbctl traces --connect 127.0.0.1:9184 [--id HEX]
//! mmdbctl events --db ./mydb [--warmup N] [--limit N]
//! mmdbctl top --db ./mydb [--queries N] [--seed S] [--limit N]
//! mmdbctl knn --db ./mydb probe.ppm --k 5
//! mmdbctl export --db ./mydb --id 7 out.ppm
//! mmdbctl script --db ./mydb --id 9        # print an edited image's script
//! mmdbctl lint --db ./mydb [--format text|json]   # static analysis
//! mmdbctl analyze --db ./mydb --id 9       # per-sequence analysis detail
//! mmdbctl verify --db ./mydb               # logical consistency check
//! mmdbctl fsck ./mydb                      # offline on-disk durability check
//! mmdbctl churn --db ./mydb --ops 500      # deterministic mutation workload
//! mmdbctl delete --db ./mydb --id 7
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs plus positional
//! paths) to keep the dependency set at the workspace baseline.

use mmdbms::datagen::{flags::FlagGenerator, helmets::HelmetGenerator, VariantConfig};
use mmdbms::editops::codec;
use mmdbms::histogram::quantizer::from_description;
use mmdbms::prelude::*;
use mmdbms::MultimediaDatabase;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line: subcommand, `--key value` options, positionals.
#[derive(Debug, Default)]
struct Args {
    command: String,
    options: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// Splits raw arguments into the [`Args`] shape. Every `--key` consumes the
/// following token as its value (flags that take no value are not used by
/// this tool).
fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter().peekable();
    args.command = it
        .next()
        .cloned()
        .ok_or_else(|| "missing subcommand".to_string())?;
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("option --{key} expects a value"))?;
            args.options.insert(key.to_string(), value.clone());
        } else {
            args.positional.push(tok.clone());
        }
    }
    Ok(args)
}

impl Args {
    fn db_path(&self) -> Result<PathBuf, String> {
        self.options
            .get("db")
            .or_else(|| self.options.get("data-dir"))
            .map(PathBuf::from)
            .ok_or_else(|| "--db <dir> (alias --data-dir) is required".to_string())
    }

    /// Durability knobs shared by every command that opens or creates a
    /// database: `--fsync always|interval[:ms]|never`, `--segment-bytes N`,
    /// `--snapshot-every N`.
    fn durability_opts(&self) -> Result<mmdbms::storage::DurabilityOptions, String> {
        let mut opts = mmdbms::storage::DurabilityOptions::default();
        if let Some(raw) = self.options.get("fsync") {
            opts.fsync = mmdbms::durable::FsyncPolicy::parse(raw)
                .map_err(|e| format!("bad --fsync: {e}"))?;
        }
        opts.segment_bytes = self.u64_opt("segment-bytes", opts.segment_bytes)?;
        opts.snapshot_every = self.u64_opt("snapshot-every", opts.snapshot_every)?;
        Ok(opts)
    }

    fn id(&self) -> Result<ImageId, String> {
        let raw = self
            .options
            .get("id")
            .ok_or_else(|| "--id <n> is required".to_string())?;
        raw.parse::<u64>()
            .map(ImageId::new)
            .map_err(|_| format!("bad id {raw:?}"))
    }

    fn u64_opt(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn f64_opt(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }
}

/// Clean-shutdown drain of `serve`: after the network layer has stopped,
/// push everything volatile to disk — final snapshot, persisted bound
/// indexes, fsynced active WAL segment — so the next open replays zero
/// records. In-memory databases are a no-op.
fn drain_to_disk(db: &MultimediaDatabase) {
    if db.storage().data_dir().is_none() {
        return;
    }
    let flushed = db
        .flush()
        .map_err(|e| e.to_string())
        .and_then(|()| db.storage().wal_sync().map_err(|e| e.to_string()));
    let detail = match flushed {
        Ok(()) => format!(
            "snapshot + wal fsync at epoch {}",
            db.storage().current_epoch()
        ),
        Err(e) => format!("flush failed: {e}"),
    };
    mmdbms::telemetry::recorder().record(
        mmdbms::telemetry::EventKind::ServerCleanShutdown,
        detail,
        &[("epoch", db.storage().current_epoch())],
    );
    eprintln!("flushed database to disk (clean shutdown)");
}

fn open_db(args: &Args) -> Result<MultimediaDatabase, String> {
    let dir = args.db_path()?;
    MultimediaDatabase::open_with(&dir, args.durability_opts()?)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

fn cmd_create(args: &Args) -> Result<(), String> {
    let dir = args.db_path()?;
    let desc = args
        .options
        .get("quantizer")
        .cloned()
        .unwrap_or_else(|| "rgb-uniform/4".to_string());
    let quantizer = from_description(&desc).ok_or_else(|| format!("unknown quantizer {desc:?}"))?;
    let opts = args.durability_opts()?;
    let shards = args.u64_opt("shards", 1)? as usize;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let db = MultimediaDatabase::create_sharded_with(&dir, quantizer, opts, shards)
        .map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!(
        "created database at {} (quantizer {desc}, fsync {}, {} shard(s))",
        dir.display(),
        opts.fsync.label(),
        db.shard_count()
    );
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let count = args.u64_opt("count", 12)?;
    let augment = args.u64_opt("augment", 3)? as usize;
    let seed = args.u64_opt("seed", 42)?;
    let collection = args
        .options
        .get("collection")
        .map_or("flags", String::as_str);
    let config = VariantConfig::default();
    let mut inserted = 0usize;
    for i in 0..count {
        let img = match collection {
            "flags" => FlagGenerator::with_seed(seed).generate(i),
            "helmets" => HelmetGenerator::with_seed(seed).generate(i),
            other => return Err(format!("unknown collection {other:?} (flags|helmets)")),
        };
        let (_base, variants) = db
            .insert_image_with_augmentation(&img, augment, config, seed ^ i)
            .map_err(|e| e.to_string())?;
        inserted += 1 + variants.len();
    }
    db.flush().map_err(|e| e.to_string())?;
    println!(
        "generated {count} {collection} images (+{augment} variants each): {inserted} objects"
    );
    Ok(())
}

fn cmd_insert(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let file = args
        .positional
        .first()
        .ok_or_else(|| "expected a PPM/PGM file argument".to_string())?;
    let image = mmdbms::imaging::ppm::read_file(Path::new(file)).map_err(|e| e.to_string())?;
    let augment = args.u64_opt("augment", 0)? as usize;
    let seed = args.u64_opt("seed", 1)?;
    let (base, variants) = db
        .insert_image_with_augmentation(&image, augment, VariantConfig::default(), seed)
        .map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!("inserted {base} ({}x{})", image.width(), image.height());
    if !variants.is_empty() {
        println!("augmented with {} variants: {variants:?}", variants.len());
    }
    Ok(())
}

fn cmd_insert_script(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let file = args
        .positional
        .first()
        .ok_or_else(|| "expected a script file argument".to_string())?;
    let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
    let sequence = codec::from_text(&text).map_err(|e| e.to_string())?;
    let id = db.insert_edited(sequence).map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!("inserted edited image {id}");
    Ok(())
}

fn cmd_ls(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    println!("{:>8}  {:<8}  {:<24}  derived", "id", "kind", "detail");
    for id in db.ids() {
        let storage = db.shard_storage(db.shard_of(id));
        match storage.kind(id).map_err(|e| e.to_string())? {
            mmdbms::storage::StoredKind::Binary => {
                let raster = storage.raster(id).map_err(|e| e.to_string())?;
                let children = storage.children_of(id);
                println!(
                    "{:>8}  binary    {:<24}  {} variant(s)",
                    id.raw(),
                    format!("{}x{} raster", raster.width(), raster.height()),
                    children.len()
                );
            }
            mmdbms::storage::StoredKind::Edited => {
                let seq = storage.edit_sequence(id).expect("edited has sequence");
                println!(
                    "{:>8}  edited    {:<24}  base img#{}",
                    id.raw(),
                    format!("{} op(s)", seq.len()),
                    seq.base.raw()
                );
            }
        }
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    if let Ok(id) = args.id() {
        let storage = db.shard_storage(db.shard_of(id));
        let hist = storage.histogram(id).map_err(|e| e.to_string())?;
        println!("{id}:");
        println!(
            "  kind:  {:?}",
            storage.kind(id).map_err(|e| e.to_string())?
        );
        if let Some(base) = storage.base_of(id) {
            println!("  base:  {base}");
        }
        println!("  pixels: {}", hist.total());
        println!("  dominant colors:");
        let mut bins: Vec<(usize, u64)> = hist.nonzero().collect();
        bins.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        for (bin, count) in bins.into_iter().take(5) {
            let rep = db.quantizer().representative(bin);
            println!(
                "    bin {bin:>3} ({rep:?})  {:>6.2}%",
                100.0 * count as f64 / hist.total() as f64
            );
        }
        return Ok(());
    }
    let stats = db.stats();
    let snapshot = db.bwm_snapshot();
    println!("database {}:", args.db_path()?.display());
    println!("  quantizer:       {}", db.quantizer().describe());
    println!(
        "  binary images:   {} ({} bytes)",
        stats.binary_count, stats.binary_bytes
    );
    println!(
        "  edited images:   {} ({} bytes)",
        stats.edited_count, stats.edited_bytes
    );
    if let Some(factor) = stats.space_saving_factor() {
        println!("  space saving:    {factor:.1}x per image");
    }
    println!(
        "  BWM structure:   {} clusters / {} classified / {} unclassified",
        snapshot.cluster_count(),
        snapshot.classified_count(),
        snapshot.unclassified_count()
    );
    println!(
        "  raster cache:    {} hits / {} misses",
        stats.cache_hits, stats.cache_misses
    );
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    if args.options.contains_key("connect") {
        return cmd_query_remote(args);
    }
    let db = open_db(args)?;
    let (query, plan) = parse_query(args, &db)?;
    let start = std::time::Instant::now();
    let outcome = db
        .query_range_with_plan(&query, plan)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let results = if args.options.contains_key("expand") {
        db.expand_with_bases(&outcome.results)
    } else {
        outcome.sorted_results()
    };
    println!(
        "{} result(s) in {} under plan {plan} (bounds computed: {}, shortcut emissions: {})",
        results.len(),
        mmdbms::telemetry::format_duration(elapsed),
        outcome.stats.bounds_computed,
        outcome.stats.shortcut_emissions
    );
    for id in results {
        println!("  {id}");
    }
    Ok(())
}

/// Parses the shared query options (`--color`, `--min`, `--max`, `--plan`).
fn parse_query(
    args: &Args,
    db: &MultimediaDatabase,
) -> Result<(ColorRangeQuery, QueryPlan), String> {
    let color = args
        .options
        .get("color")
        .ok_or_else(|| "--color '#rrggbb' is required".to_string())?;
    let color = Rgb::from_hex(color).ok_or_else(|| format!("bad color {color:?}"))?;
    let min = args.f64_opt("min", 0.0)?;
    let max = args.f64_opt("max", 1.0)?;
    let plan = match args.options.get("plan").map(String::as_str) {
        None | Some("bwm") => QueryPlan::Bwm,
        Some("rbm") => QueryPlan::Rbm,
        Some("instantiate") => QueryPlan::Instantiate,
        Some("indexed") => QueryPlan::Indexed,
        Some(other) => return Err(format!("unknown plan {other:?}")),
    };
    Ok((ColorRangeQuery::new(db.bin_of(color), min, max), plan))
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    // Opening the database already exercises the storage and BWM layers
    // (catalog load + Figure 1 rebuild); eager registration fills in the
    // rest of the schema so every series is visible even at zero.
    let db = open_db(args)?;
    mmdbms::register_all_metrics();
    match args.options.get("format").map(String::as_str) {
        None | Some("prometheus") => print!("{}", db.metrics().render_prometheus()),
        Some("json") => println!("{}", db.metrics().render_json()),
        Some(other) => return Err(format!("unknown format {other:?} (prometheus|json)")),
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let (query, plan) = parse_query(args, &db)?;
    let (outcome, trace) = db
        .query_range_traced(&query, plan)
        .map_err(|e| e.to_string())?;
    if args.options.contains_key("json") {
        println!("{}", trace.render_json());
        return Ok(());
    }
    print!("{}", trace.render());
    println!(
        "{} result(s): {:?}",
        outcome.results.len(),
        outcome.sorted_results()
    );
    Ok(())
}

/// Runs `n` seeded range queries under the RBM, BWM, and indexed plans so
/// the histograms, counters, and flight recorder have data before exposition
/// (the indexed pass also builds the bound-interval index and populates its
/// hit counters).
/// Databases with no binary images (no palette mass to draw queries from)
/// are skipped with a notice.
fn run_warmup(db: &MultimediaDatabase, n: u64, seed: u64) -> Result<usize, String> {
    if n == 0 {
        return Ok(0);
    }
    if db.binary_ids().is_empty() {
        eprintln!("warmup skipped: database has no binary images");
        return Ok(0);
    }
    // The generator draws its bin palette from one engine's catalog; pick
    // the first shard that holds binary images so a sharded database (where
    // shard 0 can legitimately be empty) still warms with real bins.
    let palette = (0..db.shard_count())
        .map(|i| db.shard_storage(i))
        .find(|s| !s.binary_ids().is_empty())
        .unwrap_or_else(|| db.storage());
    let mut gen =
        mmdbms::datagen::QueryGenerator::weighted_from_db(seed, palette).thresholds(0.02, 0.15);
    let mut ran = 0usize;
    for _ in 0..n {
        let query = gen.next_query();
        for plan in [QueryPlan::Rbm, QueryPlan::Bwm, QueryPlan::Indexed] {
            db.query_range_with_plan(&query, plan)
                .map_err(|e| e.to_string())?;
            ran += 1;
        }
    }
    Ok(ran)
}

/// The build profile this binary was compiled under, for `mmdb_build_info`.
fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// A shared readiness latch: `/readyz` answers 503 with the current detail
/// string until [`ReadyLatch::set_ready`] flips it to 200.
#[derive(Clone)]
struct ReadyLatch {
    ready: std::sync::Arc<std::sync::atomic::AtomicBool>,
    detail: std::sync::Arc<std::sync::Mutex<String>>,
}

impl ReadyLatch {
    fn new(initial_detail: &str) -> ReadyLatch {
        ReadyLatch {
            ready: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
            detail: std::sync::Arc::new(std::sync::Mutex::new(initial_detail.to_string())),
        }
    }

    fn set_ready(&self, detail: String) {
        *self.detail.lock().unwrap() = detail;
        self.ready.store(true, std::sync::atomic::Ordering::Release);
    }

    fn probe(&self) -> mmdbms::telemetry::ReadinessProbe {
        let latch = self.clone();
        std::sync::Arc::new(move || {
            let detail = latch.detail.lock().unwrap().clone();
            if latch.ready.load(std::sync::atomic::Ordering::Acquire) {
                Ok(detail)
            } else {
                Err(detail)
            }
        })
    }
}

/// Binds the metrics/exposition server with the standard prerender hook
/// (refresh the bound-index staleness gauges, so every scrape sees a current
/// reading) plus a readiness probe.
fn bind_exposition(
    listen: &str,
    latch: &ReadyLatch,
    db: &std::sync::Arc<MultimediaDatabase>,
) -> Result<mmdbms::telemetry::MetricsServer, String> {
    let hook_db = std::sync::Arc::clone(db);
    let options = mmdbms::telemetry::ServeOptions {
        prerender: Some(std::sync::Arc::new(move || {
            hook_db.refresh_staleness_gauges();
        })),
        readiness: Some(latch.probe()),
    };
    mmdbms::telemetry::serve_with(listen, options).map_err(|e| format!("bind {listen}: {e}"))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let db = std::sync::Arc::new(open_db(args)?);
    mmdbms::register_all_metrics();
    mmdbms::telemetry::register_build_info(env!("CARGO_PKG_VERSION"), build_profile());
    let mut config = mmdbms::server::ServerConfig::default();
    config.workers = args.u64_opt("workers", config.workers as u64)? as usize;
    config.queue_depth = args.u64_opt("queue-depth", config.queue_depth as u64)? as usize;
    config.trace_keep = std::time::Duration::from_millis(
        args.u64_opt("trace-keep-ms", config.trace_keep.as_millis() as u64)?,
    );
    // An optional metrics endpoint rides along so operators can watch the
    // server counters (overloads, deadline misses, latency) live, fetch
    // kept traces from /traces, and gate traffic on /readyz. Bound *before*
    // the warmup so the unready window is observable.
    let latch = ReadyLatch::new("warming up");
    // Ctrl-C / SIGTERM: stop accepting, drain, exit 0. Installed before any
    // address is announced so a supervisor reacting to that line can never
    // catch the process with the default (killing) disposition; a SIGINT
    // arriving during warmup must drain, not kill.
    let signal = mmdbms::server::ShutdownSignal::install();
    let metrics = match args.options.get("metrics") {
        Some(addr) => {
            let m = bind_exposition(addr, &latch, &db)?;
            eprintln!("metrics on http://{}", m.local_addr());
            Some(m)
        }
        None => None,
    };
    run_warmup(&db, args.u64_opt("warmup", 0)?, args.u64_opt("seed", 42)?)?;
    let listen = args
        .options
        .get("listen")
        .map_or("127.0.0.1:9190", String::as_str);
    let backend: std::sync::Arc<dyn mmdbms::server::QueryBackend> = std::sync::Arc::clone(&db) as _;
    let server = mmdbms::server::QueryServer::bind(listen, backend, config)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    latch.set_ready(format!(
        "catalog loaded, serving queries on {}",
        server.local_addr()
    ));
    // Flush explicitly: when stdout is a pipe (tests and scripts reading
    // the ephemeral port) the line would otherwise sit in the block buffer
    // until exit.
    println!(
        "serving queries on {} ({} shard(s), workers {}, queue depth {}, trace keep {}ms)",
        server.local_addr(),
        db.shard_count(),
        config.workers,
        config.queue_depth,
        config.trace_keep.as_millis()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signal.wait(std::time::Duration::from_millis(100));
    eprintln!("signal received, draining in-flight requests");
    let drained = server.shutdown();
    if let Some(m) = metrics {
        m.shutdown();
    }
    drain_to_disk(&db);
    println!("drained ({} queued at stop)", drained.queued_at_stop);
    Ok(())
}

/// `query --connect HOST:PORT`: run the range query over the wire instead
/// of in-process. The histogram bin is selected with `--bin N` (the server
/// owns the quantizer; resolving a hex color needs a local `--db`).
fn cmd_query_remote(args: &Args) -> Result<(), String> {
    use mmdbms::server::protocol::{PlanKind, ProfileKind};
    let addr = args.options.get("connect").expect("checked by caller");
    let bin = match args.options.get("bin") {
        Some(v) => v.parse::<u32>().map_err(|_| format!("bad --bin {v:?}"))?,
        None => {
            if !args.options.contains_key("db") {
                return Err(
                    "--connect needs --bin N (or --db plus --color to resolve one locally)"
                        .to_string(),
                );
            }
            let db = open_db(args)?;
            let color = args
                .options
                .get("color")
                .ok_or_else(|| "--color '#rrggbb' is required".to_string())?;
            let color = Rgb::from_hex(color).ok_or_else(|| format!("bad color {color:?}"))?;
            db.bin_of(color) as u32
        }
    };
    let plan = match args.options.get("plan").map(String::as_str) {
        None | Some("bwm") => PlanKind::Bwm,
        Some("rbm") => PlanKind::Rbm,
        Some("instantiate") => PlanKind::Instantiate,
        Some("indexed") => PlanKind::Indexed,
        Some(other) => return Err(format!("unknown plan {other:?}")),
    };
    let request = mmdbms::server::RangeRequest {
        plan,
        profile: ProfileKind::Conservative,
        bin,
        pct_min: args.f64_opt("min", 0.0)?,
        pct_max: args.f64_opt("max", 1.0)?,
    };
    let deadline_ms = args.u64_opt("deadline-ms", 0)? as u32;
    let mut client = mmdbms::server::Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let reply = client
        .range_with_deadline(request, deadline_ms)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    println!(
        "{} result(s) in {} from {addr} (bounds computed: {}, shortcut emissions: {})",
        reply.ids.len(),
        mmdbms::telemetry::format_duration(elapsed),
        reply.bounds_computed,
        reply.shortcut_emissions
    );
    let mut ids = reply.ids;
    ids.sort_unstable();
    for id in ids {
        println!("  img#{id}");
    }
    Ok(())
}

/// A minimal HTTP/1.1 GET against the exposition server (dependency-free on
/// purpose: it only needs to fetch from our own `MetricsServer`). Returns
/// the body; non-2xx statuses become errors carrying the body as detail.
fn http_get(addr: &str, path: &str, timeout: std::time::Duration) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send {addr}{path}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {addr}{path}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}{path}"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    if (200..300).contains(&status) {
        Ok(body.to_string())
    } else {
        Err(format!(
            "{addr}{path} answered {status}: {}",
            body.trim_end()
        ))
    }
}

/// `traces --connect HOST:PORT [--id HEX]`: fetch the tail-sampled trace
/// store from a serving process — summaries, or one full span tree by id.
fn cmd_traces(args: &Args) -> Result<(), String> {
    let addr = args
        .options
        .get("connect")
        .ok_or_else(|| "--connect HOST:PORT (the metrics address) is required".to_string())?;
    let path = match args.options.get("id") {
        Some(id) => format!("/traces/{id}"),
        None => "/traces".to_string(),
    };
    let body = http_get(addr, &path, std::time::Duration::from_secs(10))?;
    println!("{}", body.trim_end());
    Ok(())
}

fn cmd_events(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    mmdbms::register_all_metrics();
    run_warmup(&db, args.u64_opt("warmup", 0)?, args.u64_opt("seed", 42)?)?;
    let limit = args.u64_opt("limit", 100)? as usize;
    let events = mmdbms::telemetry::recorder().events();
    let tail = &events[events.len().saturating_sub(limit)..];
    println!("{}", mmdbms::telemetry::events_to_json(tail));
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    mmdbms::register_all_metrics();
    let queries = args.u64_opt("queries", 20)?;
    let ran = run_warmup(&db, queries, args.u64_opt("seed", 42)?)?;
    if ran > 0 {
        println!("warmed up with {ran} queries");
    }
    print_demand_and_staleness(args, &db)?;
    print_shards(&db);
    let fmt = mmdbms::telemetry::format_duration;
    let rows: Vec<(String, mmdbms::telemetry::HistogramSnapshot)> = mmdbms::telemetry::global()
        .histograms()
        .into_iter()
        .map(|(name, hist)| (name, hist.snapshot()))
        .filter(|(_, snap)| snap.count > 0)
        .collect();
    let width = rows
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0)
        .max("histogram".len());
    println!(
        "{:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
        "histogram", "count", "mean", "p50", "p90", "p99", "max"
    );
    for (name, snap) in rows {
        println!(
            "{name:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            snap.count,
            fmt(snap.mean().unwrap_or_default()),
            fmt(snap.p50().unwrap_or_default()),
            fmt(snap.p90().unwrap_or_default()),
            fmt(snap.p99().unwrap_or_default()),
            fmt(snap.max())
        );
    }
    Ok(())
}

/// The range-demand and index-staleness sections of `mmdbctl top`: the
/// `mmdb_query_range_demand_total{bin,plan}` cells this process recorded,
/// ranked by count (the first `--limit`), then one row of bound-index
/// staleness.
fn print_demand_and_staleness(args: &Args, db: &MultimediaDatabase) -> Result<(), String> {
    const DEMAND: &str = "mmdb_query_range_demand_total";
    let g = mmdbms::telemetry::global();
    let mut cells: Vec<(String, u64)> = g
        .snapshot()
        .values
        .into_iter()
        .filter_map(|(name, count)| Some((name.strip_prefix(DEMAND)?.to_string(), count)))
        .collect();
    cells.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    db.refresh_staleness_gauges();
    let staleness = |metric: &str| g.gauge(metric).get();
    if cells.is_empty() {
        println!("range demand: no queries recorded yet");
    } else {
        println!("{:<32}  {:>8}", "range demand {bin,plan}", "count");
        let limit = args.u64_opt("limit", 20)? as usize;
        for (labels, count) in cells.iter().take(limit.max(1)) {
            println!("{labels:<32}  {count:>8}");
        }
    }
    println!(
        "{:>9}  {:>9}  {:>8}  {:>11}",
        "index lag", "resident", "backlog", "synced-ago"
    );
    println!(
        "{:>9}  {:>9}  {:>8}  {:>10}s",
        staleness("mmdb_boundidx_epoch_lag"),
        staleness("mmdb_boundidx_entries_resident"),
        staleness("mmdb_boundidx_resync_backlog"),
        staleness("mmdb_boundidx_seconds_since_sync"),
    );
    Ok(())
}

/// The `shards` section of `mmdbctl top`: one row per storage shard with
/// its object counts, byte footprint, and mutation epoch — where placement
/// imbalance is measured (what one served query did per shard is in its
/// `query_end` record).
fn print_shards(db: &MultimediaDatabase) {
    println!(
        "{:>5}  {:>7}  {:>7}  {:>12}  {:>12}  {:>8}",
        "shard", "binary", "edited", "binary-bytes", "edited-bytes", "epoch"
    );
    for i in 0..db.shard_count() {
        let storage = db.shard_storage(i);
        let s = storage.stats();
        println!(
            "{i:>5}  {:>7}  {:>7}  {:>12}  {:>12}  {:>8}",
            s.binary_count,
            s.edited_count,
            s.binary_bytes,
            s.edited_bytes,
            storage.current_epoch()
        );
    }
}

fn cmd_knn(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let file = args
        .positional
        .first()
        .ok_or_else(|| "expected a probe PPM file".to_string())?;
    let probe = mmdbms::imaging::ppm::read_file(Path::new(file)).map_err(|e| e.to_string())?;
    let k = args.u64_opt("k", 5)? as usize;
    let out = db
        .similar_to_augmented(&probe, k)
        .map_err(|e| e.to_string())?;
    println!(
        "k-NN over binary and edited images ({} pruned / {} instantiated of {} edited):",
        out.stats.edited_pruned,
        out.stats.edited_instantiated,
        out.stats.edited_pruned + out.stats.edited_instantiated
    );
    for (d, id) in out.neighbours {
        println!("  {id}  L1 = {d:.4}");
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let id = args.id()?;
    let out = args
        .positional
        .first()
        .ok_or_else(|| "expected an output path".to_string())?;
    db.export_ppm(id, Path::new(out))
        .map_err(|e| e.to_string())?;
    println!("exported {id} to {out}");
    Ok(())
}

fn cmd_script(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let id = args.id()?;
    let seq = db
        .shard_storage(db.shard_of(id))
        .edit_sequence(id)
        .ok_or_else(|| format!("{id} is not an edited image"))?;
    print!("{}", codec::to_text(&seq));
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    // Register the analyzer's series up front so `mmdbctl metrics` shows
    // run counts, latency, and per-lint counters even before the first
    // finding.
    mmdbms::register_all_metrics();
    let report = db.lint();
    match args.options.get("format").map(String::as_str) {
        None | Some("text") => print!("{}", report.render_text()),
        Some("json") => println!("{}", report.render_json()),
        Some(other) => return Err(format!("unknown format {other:?} (text|json)")),
    }
    if report.has_errors() {
        Err(format!(
            "{} error-level diagnostic(s)",
            report.error_count()
        ))
    } else {
        Ok(())
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let id = args.id()?;
    let analysis = db.analyze(id).map_err(|e| e.to_string())?;
    let seq = db
        .shard_storage(db.shard_of(id))
        .edit_sequence(id)
        .ok_or_else(|| format!("{id} is not an edited image"))?;
    println!("{id}: {} op(s), base {}", seq.len(), seq.base);
    let verdict = mmdbms::analysis::widening_verdict(&seq);
    if verdict.all_widening {
        println!("  classification: all rules bound-widening (BWM Main)");
    } else {
        println!(
            "  classification: {} non-widening op(s), first at index {} (BWM Unclassified)",
            verdict.non_widening_count,
            verdict.first_non_widening.unwrap_or(0)
        );
    }
    match &analysis.audit {
        Some(audit) => println!(
            "  soundness audit: {} over {} op(s) (monotone: {}, Combine containment: {}, \
             final containment: {})",
            if audit.is_clean() { "clean" } else { "DIRTY" },
            audit.ops_audited,
            audit.monotonic,
            audit.combine_containment,
            audit.final_containment
        ),
        None => println!("  soundness audit: skipped (unresolved references or prior errors)"),
    }
    if analysis.dead_ops.is_empty() {
        println!("  dead ops: none");
    } else {
        let simplified = mmdbms::analysis::simplify(&seq);
        println!(
            "  dead ops: {} removable ({} -> {} op(s) after elimination)",
            analysis.dead_ops.len(),
            seq.len(),
            simplified.sequence.len()
        );
    }
    if analysis.diagnostics.is_empty() {
        println!("  diagnostics: none");
    } else {
        println!("  diagnostics:");
        for d in &analysis.diagnostics {
            println!("    {d}");
        }
    }
    if analysis.has_errors() {
        Err("sequence has error-level diagnostics".to_string())
    } else {
        Ok(())
    }
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let problems: Vec<String> = (0..db.shard_count())
        .flat_map(|i| {
            db.shard_storage(i)
                .verify()
                .into_iter()
                .map(move |p| format!("shard {i}: {p}"))
        })
        .collect();
    if problems.is_empty() {
        println!("ok: database is consistent");
        Ok(())
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        Err(format!("{} problem(s) found", problems.len()))
    }
}

/// `fsck <data-dir>`: offline durability check — no lock is taken and
/// nothing is modified, so it is safe against a crashed (but not a live)
/// process's directory. The durable layer validates meta, snapshots, and
/// WAL framing; the storage-aware checks layered here decode the catalog
/// (`F011`), confirm the referenced blob generation exists (`F010`), and
/// validate any persisted bound-index segments (`F009`).
fn cmd_fsck(args: &Args) -> Result<(), String> {
    let dir = match args.positional.first() {
        Some(p) => PathBuf::from(p),
        None => args.db_path()?,
    };
    // A `shards` manifest means the root holds one complete engine
    // directory per shard; each is checked independently (a shard's WAL,
    // snapshots, blobs, and bound indexes are self-contained). A root
    // without a manifest is a single-shard database in the historical
    // layout and is checked in place.
    let shard_dirs: Vec<PathBuf> = match mmdbms::read_shard_manifest(&dir) {
        Ok(Some(n)) => (0..n).map(|i| mmdbms::shard_dir(&dir, i)).collect(),
        Ok(None) => vec![dir.clone()],
        Err(e) => {
            return Err(format!(
                "unreadable shards manifest in {}: {e}",
                dir.display()
            ))
        }
    };
    let sharded = shard_dirs.len() > 1 || shard_dirs[0] != dir;
    let mut errors = 0usize;
    for shard_dir in &shard_dirs {
        let mut report = mmdbms::durable::fsck_dir(shard_dir);
        storage_aware_fsck(shard_dir, &mut report);
        for finding in &report.findings {
            println!("{finding}");
        }
        let covered = report
            .latest_snapshot
            .as_ref()
            .map_or(0, |s| s.covered_seqno);
        println!(
            "fsck {}: {} WAL segment(s), {} record(s) ({} replayable past snapshot seqno {}), {} finding(s)",
            shard_dir.display(),
            report.segments,
            report.wal_records,
            report.tail_records,
            covered,
            report.findings.len()
        );
        errors += report
            .findings
            .iter()
            .filter(|f| f.code.severity() == mmdbms::durable::Severity::Error)
            .count();
    }
    if sharded {
        println!(
            "fsck {}: sharded layout, {} shard(s) checked",
            dir.display(),
            shard_dirs.len()
        );
    }
    if errors > 0 {
        Err(format!("{errors} error-level finding(s)"))
    } else {
        Ok(())
    }
}

/// The storage-level half of fsck: checks that need the catalog codec and
/// the bound-index format, pushed into the durable report under `F009`–
/// `F011`.
fn storage_aware_fsck(dir: &Path, report: &mut mmdbms::durable::FsckReport) {
    use mmdbms::durable::FsckCode;
    let Ok(snaps) = mmdbms::durable::SnapshotStore::open(&dir.join("snapshots")) else {
        return; // already reported as F004 by the durable layer
    };
    let Ok(Some(loaded)) = snaps.load_latest() else {
        return;
    };
    let catalog = match mmdbms::storage::Catalog::decode(&loaded.payload) {
        Ok((catalog, _free_list)) => catalog,
        Err(e) => {
            report.push(
                FsckCode::SnapshotUndecodable,
                format!("{}: {e}", loaded.path.display()),
            );
            return;
        }
    };
    let binary_count = catalog
        .iter()
        .filter(|(_, e)| e.kind() == mmdbms::storage::StoredKind::Binary)
        .count();
    let blob_path = dir.join(mmdbms::storage::blob_file_name(loaded.blob_gen));
    if binary_count > 0 && !blob_path.exists() {
        report.push(
            FsckCode::BlobGenerationMissing,
            format!(
                "{} ({} binary image(s) reference generation {})",
                blob_path.display(),
                binary_count,
                loaded.blob_gen
            ),
        );
    }
    // The persisted bound index (the one `open` reads): it must parse and
    // must not be stamped beyond the last catalog state reachable from disk.
    let Some(quantizer) = from_description(catalog.quantizer_desc()) else {
        report.push(
            FsckCode::SnapshotUndecodable,
            format!(
                "unknown quantizer description {:?}",
                catalog.quantizer_desc()
            ),
        );
        return;
    };
    let last_reachable = loaded.covered_seqno + report.tail_records;
    let idx_dir = dir.join("boundidx");
    let profile = RuleProfile::Conservative;
    let idx_path = idx_dir.join(mmdbms::boundidx::persist::index_file_name(profile));
    match mmdbms::boundidx::persist::load(&idx_dir, profile, quantizer.bin_count()) {
        Ok(Some(idx)) if idx.synced_epoch() > last_reachable => report.push(
            FsckCode::IndexSegmentCorrupt,
            format!(
                "{}: stamped epoch {} beyond last reachable seqno {last_reachable}",
                idx_path.display(),
                idx.synced_epoch()
            ),
        ),
        Ok(_) => {}
        Err(e) => report.push(
            FsckCode::IndexSegmentCorrupt,
            format!("{}: {e}", idx_path.display()),
        ),
    }
}

/// `churn --db DIR [--ops N] [--seed S]`: apply a deterministic mutation
/// workload (inserts, edited variants, deletes) until `--ops` is reached or
/// the process is killed. Progress lines are flushed so a harness can
/// SIGKILL mid-churn and know roughly how far it got; the crash-recovery
/// smoke test is the intended caller.
fn cmd_churn(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let db = open_db(args)?;
    let ops = args.u64_opt("ops", 0)?;
    let seed = args.u64_opt("seed", 1)?;
    let report_every = args.u64_opt("report-every", 32)?.max(1);
    let flags = FlagGenerator::with_seed(seed);
    let mut edited_pool: Vec<ImageId> = Vec::new();
    let mut done = 0u64;
    loop {
        if ops > 0 && done >= ops {
            break;
        }
        let step = done % 5;
        match step {
            // Two binary inserts, two edited variants, one delete per cycle.
            0 | 1 => {
                let img = flags.generate(seed ^ done);
                let base = db.insert_image(&img).map_err(|e| e.to_string())?;
                let variant = db
                    .insert_edited(
                        EditSequence::builder(base)
                            .define(Rect::new(0, 0, 8, 8))
                            .blur()
                            .build(),
                    )
                    .map_err(|e| e.to_string())?;
                edited_pool.push(variant);
            }
            2 | 3 => {
                if let Some(&base) = db.storage().binary_ids().first() {
                    let variant = db
                        .insert_edited(
                            EditSequence::builder(base)
                                .define(Rect::new(0, 0, 4, 4))
                                .modify(Rgb::WHITE, Rgb::RED)
                                .build(),
                        )
                        .map_err(|e| e.to_string())?;
                    edited_pool.push(variant);
                }
            }
            _ => {
                if edited_pool.len() > 4 {
                    let victim = edited_pool.swap_remove((done as usize) % edited_pool.len());
                    db.delete(victim).map_err(|e| e.to_string())?;
                }
            }
        }
        done += 1;
        if done.is_multiple_of(report_every) {
            println!(
                "churn: {done} op(s), epoch {}, {} image(s)",
                db.storage().current_epoch(),
                db.storage().ids().len()
            );
            let _ = std::io::stdout().flush();
        }
    }
    db.flush().map_err(|e| e.to_string())?;
    println!(
        "churn complete: {done} op(s), epoch {}, {} image(s)",
        db.storage().current_epoch(),
        db.storage().ids().len()
    );
    Ok(())
}

fn cmd_compact(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let mut reclaimed = 0;
    for i in 0..db.shard_count() {
        reclaimed += db.shard_storage(i).compact().map_err(|e| e.to_string())?;
    }
    println!("compacted: {reclaimed} bytes reclaimed");
    Ok(())
}

fn cmd_delete(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let id = args.id()?;
    db.delete(id).map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!("deleted {id}");
    Ok(())
}

const USAGE: &str = "usage: mmdbctl <create|gen|insert|insert-script|ls|info|query|explain|metrics|serve|traces|events|top|knn|export|script|lint|analyze|verify|fsck|churn|compact|delete> [options]
  every command taking --db DIR also accepts --data-dir DIR plus durability
  knobs [--fsync always|interval[:ms]|never] [--segment-bytes N] [--snapshot-every N]
  create        --db DIR [--quantizer rgb-uniform/4] [--shards N]
  gen           --db DIR [--collection flags|helmets] [--count N] [--augment N] [--seed S]
  insert        --db DIR FILE.ppm [--augment N] [--seed S]
  insert-script --db DIR SCRIPT.edit
  ls            --db DIR
  info          --db DIR [--id N]
  query         --db DIR --color '#rrggbb' [--min F] [--max F] [--plan bwm|rbm|instantiate|indexed] [--expand true]
                --connect HOST:PORT --bin N [--min F] [--max F] [--plan P] [--deadline-ms MS]
  explain       --db DIR --color '#rrggbb' [--min F] [--max F] [--plan bwm|rbm|instantiate|indexed] [--json true]
  metrics       --db DIR [--format prometheus|json]
  serve         --db DIR [--listen HOST:PORT] [--workers N] [--queue-depth N] [--metrics HOST:PORT] [--warmup N]
                # the wire protocol on --listen; --metrics adds the HTTP exposition sidecar
                # --workers 0 executes on the event loop (fastest on 1-2 cores); queue depth is the total bound
                [--trace-keep-ms MS]
                # a trace is kept for errors, sampled requests and requests of at least MS (default 100; 0 keeps all)
  traces        --connect HOST:PORT [--id HEX]       # HOST:PORT = metrics address
  events        --db DIR [--warmup N] [--limit N]
  top           --db DIR [--queries N] [--seed S] [--limit N]
  knn           --db DIR PROBE.ppm [--k N]
  export        --db DIR --id N OUT.ppm
  script        --db DIR --id N
  lint          --db DIR [--format text|json]
  analyze       --db DIR --id N
  verify        --db DIR
  fsck          DIR                # offline on-disk durability check (no lock); descends sharded layouts
  churn         --db DIR [--ops N] [--seed S] [--report-every N]
  compact       --db DIR
  delete        --db DIR --id N";

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`mmdbctl ls | head`), the
    // conventional Unix behaviour; std's default is a panic on the write.
    std::panic::set_hook(Box::new(|info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        eprintln!("{info}");
        std::process::exit(101);
    }));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "create" => cmd_create(&args),
        "gen" => cmd_gen(&args),
        "insert" => cmd_insert(&args),
        "insert-script" => cmd_insert_script(&args),
        "ls" => cmd_ls(&args),
        "info" => cmd_info(&args),
        "query" => cmd_query(&args),
        "explain" => cmd_explain(&args),
        "metrics" => cmd_metrics(&args),
        "serve" => cmd_serve(&args),
        "traces" => cmd_traces(&args),
        "events" => cmd_events(&args),
        "top" => cmd_top(&args),
        "knn" => cmd_knn(&args),
        "export" => cmd_export(&args),
        "script" => cmd_script(&args),
        "lint" => cmd_lint(&args),
        "analyze" => cmd_analyze(&args),
        "verify" => cmd_verify(&args),
        "fsck" => cmd_fsck(&args),
        "churn" => cmd_churn(&args),
        "compact" => cmd_compact(&args),
        "delete" => cmd_delete(&args),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args(
            &tokens
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_options_and_positionals() {
        let a = parse(&["query", "--db", "/tmp/x", "--color", "#ff0000", "probe.ppm"]).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.options.get("db").unwrap(), "/tmp/x");
        assert_eq!(a.options.get("color").unwrap(), "#ff0000");
        assert_eq!(a.positional, vec!["probe.ppm"]);
        assert_eq!(a.db_path().unwrap(), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["ls", "--db"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn typed_option_accessors() {
        let a = parse(&["x", "--id", "7", "--k", "3", "--min", "0.25"]).unwrap();
        assert_eq!(a.id().unwrap(), ImageId::new(7));
        assert_eq!(a.u64_opt("k", 1).unwrap(), 3);
        assert_eq!(a.u64_opt("absent", 9).unwrap(), 9);
        assert!((a.f64_opt("min", 0.0).unwrap() - 0.25).abs() < 1e-12);
        assert!(parse(&["x", "--id", "zebra"]).unwrap().id().is_err());
    }
}
