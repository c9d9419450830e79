//! Set-up: generate the dataset, ingest it through the facade into an
//! on-disk database, build the first index, `flush`, bind the server. This
//! is what `mmdbctl create` + `gen` + `serve-queries` does for a deployment,
//! and what `setup_s` times.

use crate::dataset;
use crate::spec::{Dataset, Drive, Workload, INGEST_CHUNK, VARIANTS_PER_BASE};
use crate::sys::Pinned;
use mmdbms::editops::ImageId;
use mmdbms::histogram::RgbQuantizer;
use mmdbms::query::QueryPlan;
use mmdbms::rules::{ColorRangeQuery, RuleProfile};
use mmdbms::server::{QueryBackend, QueryServer, ServerConfig};
use mmdbms::storage::DurabilityOptions;
use mmdbms::MultimediaDatabase;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The plan a workload's queries run under, in the steady phase and as its
/// readiness probe after a restart.
pub fn plan_of(drive: Drive) -> QueryPlan {
    match drive {
        Drive::Scan => QueryPlan::Bwm,
        Drive::Wire { .. } | Drive::Churn => QueryPlan::Indexed,
    }
}

pub const PROFILE: RuleProfile = RuleProfile::Conservative;

pub fn durability(w: &Workload) -> DurabilityOptions {
    DurabilityOptions {
        fsync: w.fsync,
        snapshot_every: w.snapshot_every,
        ..DurabilityOptions::default()
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub ingest_s: f64,
    pub index_s: f64,
    pub flush_s: f64,
    pub bind_s: f64,
    pub total_s: f64,
}

/// A database ready for its steady phase.
pub struct Stage {
    pub db: Arc<MultimediaDatabase>,
    pub server: Option<QueryServer>,
    pub dir: PathBuf,
    /// Ids of every ingested unit, base first.
    pub units: Vec<Vec<ImageId>>,
    pub times: SetupTimes,
    /// Images per second of each ingest chunk.
    pub chunk_rates: Vec<f64>,
}

impl Stage {
    /// Stops the server (drains, joins its threads), then closes the
    /// database (joins the maintenance thread) and removes its directory.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let dir = std::mem::take(&mut self.dir);
        drop(self);
        crate::sys::remove_dir(&dir);
    }
}

pub fn scaled(count: usize, scale: usize, floor: usize) -> usize {
    (count / scale).max(floor)
}

/// Runs one full set-up of `w` under `dir` (which must not exist). `bind`
/// starts the query server even for a workload that does not use the wire.
pub fn setup(
    w: &Workload,
    seed: u64,
    scale: usize,
    dir: &Path,
    bind: bool,
) -> Result<Stage, String> {
    let mut times = SetupTimes::default();
    let started = Instant::now();

    let units = dataset::generate(w.dataset, seed, 0, scaled(w.bases, scale, 40));
    times.generate_s = started.elapsed().as_secs_f64();

    let t = Instant::now();
    let db = MultimediaDatabase::create_sharded_with(
        dir,
        Box::new(RgbQuantizer::default_64()),
        durability(w),
        w.shards,
    )
    .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let chunk_units = (INGEST_CHUNK / scale / (1 + VARIANTS_PER_BASE)).max(2);
    let mut ids = Vec::with_capacity(units.len());
    let mut chunk_rates = Vec::with_capacity(units.len() / chunk_units + 1);
    for (c, chunk) in units.chunks(chunk_units).enumerate() {
        let chunk_start = Instant::now();
        for (i, unit) in chunk.iter().enumerate() {
            let predicted = (w.dataset == Dataset::Paper)
                .then(|| dataset::predicted_paper_base(c * chunk_units + i));
            ids.push(dataset::ingest_unit(&db, unit, predicted)?);
        }
        if chunk.len() == chunk_units {
            let images = chunk.len() * (1 + VARIANTS_PER_BASE);
            chunk_rates.push(images as f64 / chunk_start.elapsed().as_secs_f64());
        }
    }
    times.ingest_s = t.elapsed().as_secs_f64();
    drop(units);

    let t = Instant::now();
    if plan_of(w.drive) == QueryPlan::Indexed {
        // The first Indexed query builds every shard's bound index.
        db.query_range_with(
            &ColorRangeQuery::at_least(0, 0.5),
            QueryPlan::Indexed,
            PROFILE,
        )
        .map_err(|e| format!("first index build: {e}"))?;
    }
    times.index_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    db.flush().map_err(|e| format!("flush: {e}"))?;
    times.flush_s = t.elapsed().as_secs_f64();

    let db = Arc::new(db);
    let t = Instant::now();
    let server = if bind || w.drive != Drive::Scan {
        let backend: Arc<dyn QueryBackend> = Arc::clone(&db) as Arc<dyn QueryBackend>;
        // The server's threads inherit the load thread's CPU.
        let _server_cpu = Pinned::to_one_cpu();
        Some(
            QueryServer::bind("127.0.0.1:0", backend, ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?,
        )
    } else {
        None
    };
    times.bind_s = t.elapsed().as_secs_f64();
    times.total_s = started.elapsed().as_secs_f64();

    Ok(Stage {
        db,
        server,
        dir: dir.to_path_buf(),
        units: ids,
        times,
        chunk_rates,
    })
}
