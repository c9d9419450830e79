#![warn(missing_docs)]

//! # mmdbms — color-based retrieval over images stored as edit sequences
//!
//! A production-style reproduction of *"Speeding up Color-Based Retrieval in
//! Multimedia Database Management Systems that Store Images as Sequences of
//! Editing Operations"* (Brown & Gruenwald, ICDE 2006).
//!
//! [`MultimediaDatabase`] is the top-level handle: a storage engine for
//! binary and edit-sequence images that maintains the BWM structure
//! (Figure 1 of the paper) with its catalog, and query entry points for the three
//! execution strategies (instantiate / RBM / BWM) plus histogram k-NN over
//! binary and edited images.
//!
//! ```
//! use mmdbms::prelude::*;
//!
//! // An in-memory database with the classic 64-bin RGB histogram space.
//! let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
//!
//! // Store an image conventionally...
//! let flag = RasterImage::filled(60, 40, Rgb::new(0xCE, 0x11, 0x26)).unwrap();
//! let base = db.insert_image(&flag).unwrap();
//!
//! // ...and a derived version as a sequence of editing operations.
//! let night = EditSequence::builder(base)
//!     .define(Rect::new(0, 0, 60, 20))
//!     .modify(Rgb::new(0xCE, 0x11, 0x26), Rgb::new(0x40, 0x05, 0x09))
//!     .build();
//! let edited = db.insert_edited(night).unwrap();
//!
//! // "Retrieve all images that are at least 25% red" — answered without
//! // instantiating the edited image.
//! let red_bin = db.bin_of(Rgb::new(0xCE, 0x11, 0x26));
//! let outcome = db.query_range(&ColorRangeQuery::at_least(red_bin, 0.25)).unwrap();
//! assert!(outcome.results.contains(&base));
//! assert!(outcome.results.contains(&edited));
//! ```

use mmdb_boundidx::StalenessReport;
use mmdb_bwm::{BwmStructure, QueryCtx};
use mmdb_conc::sync::atomic::{AtomicBool, Ordering};
use mmdb_datagen::edits::TargetInfo;
use mmdb_datagen::{VariantConfig, VariantGenerator};
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::{ColorHistogram, Quantizer};
use mmdb_imaging::{ppm, RasterImage, Rgb};
use mmdb_query::executor::{observed, observed_knn, QueryError};
use mmdb_query::QueryPlan;
use mmdb_rules::{ColorRangeQuery, RuleProfile};
use mmdb_storage::{DurabilityOptions, RecoveryInfo, StorageEngine, StorageStats, StoredKind};
use mmdb_telemetry::QueryTrace;
use shards::Shards;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

// Re-export the component crates under stable names.
pub use mmdb_analysis as analysis;
pub use mmdb_boundidx as boundidx;
pub use mmdb_bwm as bwm;
pub use mmdb_datagen as datagen;
pub use mmdb_durable as durable;
pub use mmdb_editops as editops;
pub use mmdb_histogram as histogram;
pub use mmdb_imaging as imaging;
pub use mmdb_query as query;
pub use mmdb_rules as rules;
pub use mmdb_server as server;
pub use mmdb_storage as storage;
pub use mmdb_telemetry as telemetry;

mod serve;
mod shards;

pub use shards::{read_shard_manifest, shard_dir};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::MultimediaDatabase;
    pub use mmdb_bwm::{BwmStructure, QueryOutcome};
    pub use mmdb_editops::{EditOp, EditSequence, ImageId, Matrix3, SequenceBuilder};
    pub use mmdb_histogram::{
        ColorHistogram, GrayQuantizer, HsvQuantizer, Quantizer, RgbQuantizer,
    };
    pub use mmdb_imaging::{Point, RasterImage, Rect, Rgb};
    pub use mmdb_query::QueryPlan;
    pub use mmdb_rules::{BoundRange, ColorRangeQuery, RuleProfile};
    pub use mmdb_telemetry::QueryTrace;
}

/// Result alias of the facade (query-layer error covers rules + storage).
pub type Result<T> = std::result::Result<T, QueryError>;

/// Eagerly registers every layer's metric series in the global registry so
/// `mmdbctl metrics` (and any exporter) shows the full schema — zero-valued
/// series included — from process start.
pub fn register_all_metrics() {
    mmdb_durable::register_metrics();
    mmdb_storage::register_metrics();
    mmdb_bwm::register_metrics();
    mmdb_boundidx::register_metrics();
    mmdb_query::register_metrics();
    mmdb_analysis::register_metrics();
    mmdb_server::register_metrics();
    // The exposition server refreshes it before every render.
    let _ = mmdb_telemetry::global().gauge("mmdb_uptime_seconds");
}

/// The top-level multimedia database handle.
///
/// Thread-safe. The catalog is partitioned into one or more shards with
/// disjoint id spaces: writes touch exactly one shard (binary inserts
/// round-robin; an edited image lands on its base's shard, keeping
/// provenance links shard-local), and range/k-NN queries scatter across all
/// shards and merge (range = concatenate — id spaces are disjoint — and
/// sort; k-NN = merge of per-shard top-k). Per shard, the storage engine
/// maintains the BWM structure inside every insert/delete, under the same
/// lock as the catalog (the paper's Figure 1: "the proposed data structure
/// can be constructed as images are inserted into the database") — through
/// this facade or through [`MultimediaDatabase::storage`] alike; the bound
/// index is built lazily and catches up with the shard's mutation epoch
/// when next read. The default constructors build a single shard,
/// which is exactly the historical single-engine behavior. Everything about
/// the partition itself — wiring, layout, routing, placement, gathers — is
/// the `shards` module's.
pub struct MultimediaDatabase {
    shards: Shards,
    /// Background snapshot / group-commit driver for on-disk databases
    /// (`None` in memory); one thread ticks every shard. Stopped and
    /// joined on drop.
    _maintenance: Option<MaintenanceThread>,
}

/// The facade's background maintenance loop: periodically ticks every
/// shard's storage engine so interval-policy fsyncs and threshold-triggered
/// snapshots (plus the WAL segment GC that rides along) happen off the
/// request path.
struct MaintenanceThread {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceThread {
    /// How often the loop wakes to check the engines' deadlines. The tick
    /// itself is a few atomic reads per shard when there is nothing to do.
    const TICK: std::time::Duration = std::time::Duration::from_millis(50);

    fn spawn(engines: Vec<Arc<StorageEngine>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mmdb-maintenance".into())
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    std::thread::sleep(Self::TICK);
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    for engine in &engines {
                        // Maintenance is best-effort: an I/O error here
                        // surfaces on the next acknowledged mutation or
                        // explicit flush.
                        let _ = engine.maintenance_tick();
                    }
                }
            })
            .expect("spawn maintenance thread");
        MaintenanceThread {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for MaintenanceThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl MultimediaDatabase {
    /// Assembles the facade over a wired partition, starting the
    /// maintenance thread for on-disk databases.
    fn over(shards: Shards) -> Self {
        let maintenance = shards[0].storage.data_dir().is_some().then(|| {
            MaintenanceThread::spawn(shards.iter().map(|s| Arc::clone(&s.storage)).collect())
        });
        MultimediaDatabase {
            shards,
            _maintenance: maintenance,
        }
    }

    /// Creates a new on-disk database under `dir` with default durability
    /// settings (`fsync = always`).
    pub fn create(dir: &Path, quantizer: Box<dyn Quantizer>) -> Result<Self> {
        Self::create_with(dir, quantizer, DurabilityOptions::default())
    }

    /// Creates a new on-disk database under `dir` with explicit durability
    /// settings (fsync policy, WAL segment size, snapshot cadence).
    pub fn create_with(
        dir: &Path,
        quantizer: Box<dyn Quantizer>,
        opts: DurabilityOptions,
    ) -> Result<Self> {
        Self::create_sharded_with(dir, quantizer, opts, 1)
    }

    /// Creates a new on-disk database partitioned into `shards` engines.
    ///
    /// With `shards == 1` the directory layout is exactly the historical
    /// single-engine layout. With more, `dir` holds a `shards` manifest
    /// plus one complete engine directory per shard (`shard-00/`, …), each
    /// with its own WAL, snapshots, and blob generations.
    pub fn create_sharded_with(
        dir: &Path,
        quantizer: Box<dyn Quantizer>,
        opts: DurabilityOptions,
        shards: usize,
    ) -> Result<Self> {
        Ok(Self::over(Shards::create(dir, quantizer, opts, shards)?))
    }

    /// Opens an existing on-disk database: recovers each shard's catalog
    /// (latest snapshot + WAL replay), rebuilds the BWM structures, and
    /// warm-loads any persisted bound indexes so `QueryPlan::Indexed`
    /// serves without a cold build. The shard count is read from the
    /// `shards` manifest; a directory without one is a single-shard
    /// database in the historical layout. The shards of a sharded database
    /// recover and load their indexes one after another; a failed open
    /// returns the first failing shard's error and opens none after it.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`MultimediaDatabase::open`] with explicit durability settings.
    pub fn open_with(dir: &Path, opts: DurabilityOptions) -> Result<Self> {
        Ok(Self::over(Shards::open(dir, opts)?))
    }

    /// Creates an ephemeral in-memory database (one shard).
    pub fn in_memory(quantizer: Box<dyn Quantizer>) -> Self {
        Self::over(Shards::in_memory(quantizer, 1))
    }

    /// Creates an ephemeral in-memory database partitioned into `shards`
    /// engines (tests, benchmarks).
    pub fn in_memory_sharded(quantizer: Box<dyn Quantizer>, shards: usize) -> Self {
        Self::over(Shards::in_memory(quantizer, shards))
    }

    // ── Shard topology ─────────────────────────────────────────────────

    /// How many shards this database is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `id`'s congruence class: `(id - 1) % shard_count`.
    pub fn shard_of(&self, id: ImageId) -> usize {
        self.shards.index_of(id)
    }

    /// The storage engine of shard `index` (panics when out of range).
    pub fn shard_storage(&self, index: usize) -> &StorageEngine {
        &self.shards[index].storage
    }

    /// The storage engine of shard 0, for advanced use (benchmarks attach
    /// their own query processors). On sharded databases this is one
    /// shard's engine, not a whole-catalog view — use
    /// [`MultimediaDatabase::shard_storage`] to reach the others.
    pub fn storage(&self) -> &StorageEngine {
        &self.shards[0].storage
    }

    /// The database's quantizer (every shard records the same one).
    pub fn quantizer(&self) -> &dyn Quantizer {
        self.shards[0].storage.quantizer()
    }

    /// The histogram bin a color falls into.
    pub fn bin_of(&self, color: Rgb) -> usize {
        self.quantizer().bin_of(color)
    }

    // ── Inserts ────────────────────────────────────────────────────────

    /// Stores an image conventionally (feature extraction happens now).
    /// Binary images are placed round-robin across shards.
    pub fn insert_image(&self, image: &RasterImage) -> Result<ImageId> {
        Ok(self.shards.place_binary().storage.insert_binary(image)?)
    }

    /// Stores an image as a sequence of editing operations; it is
    /// immediately classified into the BWM structure (Figure 1). The image
    /// lands on its **base's** shard, so the provenance link (and the BWM
    /// cluster the paper builds around the base) stays shard-local. Every
    /// merge target must be stored there too: one on another shard is
    /// refused with `StorageError::InvalidReference`.
    pub fn insert_edited(&self, sequence: EditSequence) -> Result<ImageId> {
        let shard = self.shards.owner(sequence.base);
        Ok(shard.storage.insert_edited(sequence)?)
    }

    /// The §2 augmentation pipeline: stores `image` conventionally, then
    /// derives `variants` edited versions (seeded by `seed`) and stores them
    /// as operation sequences. Returns the base id and the variant ids.
    pub fn insert_image_with_augmentation(
        &self,
        image: &RasterImage,
        variants: usize,
        config: VariantConfig,
        seed: u64,
    ) -> Result<(ImageId, Vec<ImageId>)> {
        let base = self.insert_image(image)?;
        // The other binary images on the base's shard are the candidate
        // merge targets: the variants are stored there, with all they name.
        let targets: Vec<TargetInfo> = {
            use mmdb_rules::InfoResolver;
            let view = self.shards.owner(base).storage.read_view();
            let binaries = view.binaries().filter(|&(id, _)| id != base);
            let targets = binaries.filter_map(|(id, _)| {
                let info = view.info(id)?;
                Some(TargetInfo {
                    id,
                    width: info.width,
                    height: info.height,
                })
            });
            targets.collect()
        };
        let palette: Vec<Rgb> = mmdb_datagen::palette::FLAG_COLORS.to_vec();
        let mut generator = VariantGenerator::new(seed, config, palette);
        let mut ids = Vec::with_capacity(variants);
        for _ in 0..variants {
            let seq = generator.generate(base, image, &targets);
            ids.push(self.insert_edited(seq)?);
        }
        Ok((base, ids))
    }

    /// Deletes an image (binary images with derived children are refused by
    /// the storage layer). Touches only the owning shard.
    pub fn delete(&self, id: ImageId) -> Result<()> {
        Ok(self.shards.owner(id).storage.delete(id)?)
    }

    // ── Whole-catalog views ────────────────────────────────────────────

    /// All ids across every shard, ascending.
    pub fn ids(&self) -> Vec<ImageId> {
        self.shards.merged_ids(StorageEngine::ids)
    }

    /// Ids of all binary images across every shard, ascending.
    pub fn binary_ids(&self) -> Vec<ImageId> {
        self.shards.merged_ids(StorageEngine::binary_ids)
    }

    /// Ids of all edited images across every shard, ascending.
    pub fn edited_ids(&self) -> Vec<ImageId> {
        self.shards.merged_ids(StorageEngine::edited_ids)
    }

    /// True when `id` exists (on its owning shard).
    pub fn contains(&self, id: ImageId) -> bool {
        self.shards.owner(id).storage.contains(id)
    }

    /// The storage kind of `id`.
    pub fn stored_kind(&self, id: ImageId) -> Result<StoredKind> {
        Ok(self.shards.owner(id).storage.kind(id)?)
    }

    /// The base image of an edited image (`None` for binary images and
    /// unknown ids).
    pub fn base_of(&self, id: ImageId) -> Option<ImageId> {
        self.shards.owner(id).storage.base_of(id)
    }

    // ── Retrieval ──────────────────────────────────────────────────────

    /// Runs a color range query under the BWM plan (the paper's proposal).
    pub fn query_range(&self, query: &ColorRangeQuery) -> Result<mmdb_bwm::QueryOutcome> {
        self.query_range_with_plan(query, QueryPlan::Bwm)
    }

    /// Runs a color range query under an explicit plan (conservative rule
    /// profile).
    pub fn query_range_with_plan(
        &self,
        query: &ColorRangeQuery,
        plan: QueryPlan,
    ) -> Result<mmdb_bwm::QueryOutcome> {
        self.query_range_with(query, plan, RuleProfile::Conservative)
    }

    /// Runs a color range query under an explicit plan and rule profile.
    /// Only [`RuleProfile::Conservative`] is served: any other profile is
    /// refused with [`QueryError::UnservedProfile`] before anything runs or
    /// is observed (the literal Table 1 profile drops true matches, PAPER.md
    /// caveat 2).
    ///
    /// On a sharded database the query scatters: every shard's slice adds
    /// to one shared [`QueryCtx`] (its own BWM structure and bound index, one
    /// result vector — shard id spaces are disjoint, so no dedup is needed),
    /// followed by an ascending sort for deterministic output. Work
    /// counters sum. The query is observed once, after the gather.
    pub fn query_range_with(
        &self,
        query: &ColorRangeQuery,
        plan: QueryPlan,
        profile: RuleProfile,
    ) -> Result<mmdb_bwm::QueryOutcome> {
        if profile != RuleProfile::Conservative {
            return Err(QueryError::UnservedProfile(profile));
        }
        let mut ctx = QueryCtx::default();
        self.run(query, plan, &mut ctx)?;
        Ok(ctx.into_outcome())
    }

    /// Runs a color range query under an explicit plan with tracing: the
    /// returned [`QueryTrace`] records the plan and query parameters, each
    /// scan phase as a timed stage, and the work the stage performed (base
    /// shortcuts, bounds computed vs. widened, …). Render it with
    /// [`QueryTrace::render`]. This is what the network backend runs for
    /// wire-traced requests.
    pub fn query_range_traced(
        &self,
        query: &ColorRangeQuery,
        plan: QueryPlan,
    ) -> Result<(mmdb_bwm::QueryOutcome, QueryTrace)> {
        let mut ctx = QueryCtx::traced(format!("{plan}_range"));
        self.run(query, plan, &mut ctx)?;
        Ok(ctx.into_traced_outcome())
    }

    /// The one served range query: scatter-gather under `plan`, observed
    /// once.
    fn run(&self, query: &ColorRangeQuery, plan: QueryPlan, ctx: &mut QueryCtx) -> Result<()> {
        observed(plan, query, ctx, |ctx| self.shards.range(query, plan, ctx))
    }

    /// Recomputes and publishes the bound-index staleness and residency
    /// gauges (`mmdb_boundidx_epoch_lag` and friends) against the current
    /// catalog state. The gauges are process-wide, so on a sharded database
    /// they report the **worst** shard (max epoch lag, then max backlog) —
    /// the reading an operator needs for "is any part of the index stale".
    /// Called by the metrics exposition prerender hook so every scrape sees
    /// a fresh reading; harmless to call at any time.
    pub fn refresh_staleness_gauges(&self) {
        // Reversed because `max_by_key` keeps the last of equal maxima: a
        // tie goes to the lowest-numbered shard.
        let worst = self
            .shards
            .iter()
            .rev()
            .map(|shard| {
                // Listings and epoch of one catalog state: one view, taken
                // inside the slot's lock (slot → view, as a sync takes them).
                shard.bound_index.peek(|idx| {
                    let view = shard.storage.read_view();
                    let binary: Vec<ImageId> = view.binaries().map(|(id, _)| id).collect();
                    let edited: Vec<ImageId> = view.edited().collect();
                    let epoch = shard.storage.current_epoch();
                    StalenessReport::compute(idx, epoch, &binary, &edited)
                })
            })
            .max_by_key(|report| (report.epoch_lag, report.resync_backlog));
        if let Some(report) = worst {
            report.publish();
        }
    }

    /// The process-global telemetry registry: every layer of the stack
    /// (storage, rules, BWM, query) publishes its counters and latency
    /// histograms here. Render with
    /// [`Registry::render_prometheus`](mmdb_telemetry::Registry::render_prometheus)
    /// or [`Registry::render_json`](mmdb_telemetry::Registry::render_json),
    /// or diff [`Registry::snapshot`](mmdb_telemetry::Registry::snapshot)s
    /// around a workload. Work counters are exact as soon as the query that
    /// did the work has returned, on whichever thread it ran.
    pub fn metrics(&self) -> &'static mmdb_telemetry::Registry {
        mmdb_telemetry::global()
    }

    /// The process-global flight recorder: the ring buffer of recent
    /// structured events (query start/end, slow queries, BWM
    /// reclassifications, ingest accept/reject, cache evictions). Drain
    /// with [`FlightRecorder::events`](mmdb_telemetry::FlightRecorder::events)
    /// or serialize with
    /// [`FlightRecorder::render_json`](mmdb_telemetry::FlightRecorder::render_json).
    pub fn flight_recorder(&self) -> &'static mmdb_telemetry::FlightRecorder {
        mmdb_telemetry::recorder()
    }

    /// Convenience form of the paper's example query: "retrieve all images
    /// that are at least `pct` `color`", with §2 provenance expansion (a
    /// matching edited image also returns its base).
    pub fn find_at_least(&self, color: Rgb, pct: f64) -> Result<Vec<ImageId>> {
        let query = ColorRangeQuery::at_least(self.bin_of(color), pct);
        let outcome = self.query_range(&query)?;
        Ok(self.expand_with_bases(&outcome.results))
    }

    /// §2's provenance expansion over the whole catalog: `results` plus the
    /// base of every edited image among them, ascending. Each id is
    /// resolved on the shard that owns it, so this is the expansion to use
    /// on a sharded database (a shard-local query processor only knows its
    /// own shard's bases).
    pub fn expand_with_bases(&self, results: &[ImageId]) -> Vec<ImageId> {
        let mut expanded: BTreeSet<ImageId> = results.iter().copied().collect();
        expanded.extend(results.iter().filter_map(|&id| self.base_of(id)));
        expanded.into_iter().collect()
    }

    /// The `k` images most similar to `example` over the **whole** augmented
    /// database — binary *and* edited images — by L1 histogram distance.
    /// Edited images are pruned with Table 1 bound-derived distance lower
    /// bounds and only instantiated when they might enter the top-k (the
    /// paper's §6 nearest-neighbour future work). Exact: identical to brute
    /// force. Observed once, after the shard gather.
    pub fn similar_to_augmented(
        &self,
        example: &RasterImage,
        k: usize,
    ) -> Result<mmdb_query::KnnOutcome> {
        self.nearest_augmented(&ColorHistogram::extract(example, self.quantizer()), k)
    }

    /// [`MultimediaDatabase::similar_to_augmented`] for a probe whose
    /// histogram is already in hand (the wire `knn` probes by stored id).
    pub(crate) fn nearest_augmented(
        &self,
        hist: &ColorHistogram,
        k: usize,
    ) -> Result<mmdb_query::KnnOutcome> {
        observed_knn(|| self.shards.nearest_augmented(hist, k))
    }

    /// The instantiated raster of any image.
    pub fn image(&self, id: ImageId) -> Result<Arc<RasterImage>> {
        Ok(self.shards.owner(id).storage.raster(id)?)
    }

    /// Exports an image (instantiating if needed) as a binary PPM file.
    pub fn export_ppm(&self, id: ImageId, path: &Path) -> Result<()> {
        let raster = self.shards.owner(id).storage.raster(id)?;
        ppm::write_file(&raster, path, ppm::PnmFormat::RawRgb)
            .map_err(mmdb_storage::StorageError::from)?;
        Ok(())
    }

    /// Runs the static analyzer over every shard's stored sequences
    /// ([`StorageEngine::lint`]): per-sequence well-formedness, dead-op
    /// detection, and the bound-soundness audit. References are not
    /// linted: a shard refuses a sequence that names anything but its own
    /// binary images. This is the library entry point behind `mmdbctl lint`;
    /// run counts, latency, and per-lint counters land in
    /// [`MultimediaDatabase::metrics`].
    pub fn lint(&self) -> mmdb_analysis::AnalysisReport {
        let mut merged = mmdb_analysis::AnalysisReport::default();
        for shard in self.shards.iter() {
            let report = shard.storage.lint();
            merged.sequences_analyzed += report.sequences_analyzed;
            merged.audited += report.audited;
            merged.audits_clean += report.audits_clean;
            merged.diagnostics.extend(report.diagnostics);
        }
        merged
    }

    /// Analyzes one stored edit sequence in detail: diagnostics, removable
    /// dead ops, the soundness audit, and the BWM widening verdict.
    pub fn analyze(&self, id: ImageId) -> Result<mmdb_analysis::SequenceAnalysis> {
        let shard = self.shards.owner(id);
        let sequence = shard
            .storage
            .edit_sequence(id)
            .ok_or(mmdb_storage::StorageError::NotFound(id))?;
        let analyzer = mmdb_analysis::Analyzer::with_resolver(
            shard.storage.quantizer(),
            shard.storage.background(),
            &*shard.storage,
        );
        Ok(analyzer.analyze_sequence(&sequence))
    }

    /// A read-only snapshot of the BWM structure covering the whole
    /// catalog: every shard's own structure, merged (shards cluster
    /// disjoint base images), so callers see one coherent clustering.
    pub fn bwm_snapshot(&self) -> BwmStructure {
        let mut merged = BwmStructure::new();
        for shard in self.shards.iter() {
            merged.absorb(shard.storage.bwm_snapshot());
        }
        merged
    }

    /// Storage statistics (space usage, cache behaviour), summed across
    /// shards.
    pub fn stats(&self) -> StorageStats {
        let mut total = StorageStats::default();
        for shard in self.shards.iter() {
            let s = shard.storage.stats();
            total.binary_count += s.binary_count;
            total.edited_count += s.edited_count;
            total.binary_bytes += s.binary_bytes;
            total.edited_bytes += s.edited_bytes;
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
        }
        total
    }

    /// Persists catalog + blobs (no-op in memory): forces a snapshot, syncs
    /// and garbage-collects the WAL, and writes any resident bound indexes
    /// to `<shard-dir>/boundidx/` so the next open starts warm. Each shard
    /// flushes independently.
    pub fn flush(&self) -> Result<()> {
        for shard in self.shards.iter() {
            shard.storage.flush()?;
        }
        self.persist_indexes();
        Ok(())
    }

    /// How the catalog was recovered at open: snapshot cover point, WAL
    /// records replayed, torn bytes discarded, and wall-clock cost. `None`
    /// for in-memory and freshly created databases. On a sharded database
    /// the counts sum across shards, `snapshot_seqno` reports the maximum
    /// (seqnos are per-shard sequences), and `duration` is the wall time of
    /// the whole open pass — every shard's recovery and index load — so it
    /// is at least the sum of the shards' own. A single shard reports its
    /// engine's figures as they are.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        if let [shard] = &self.shards[..] {
            return shard.storage.recovery_info();
        }
        let duration = self.shards.recovered_in?;
        let infos: Vec<RecoveryInfo> = self
            .shards
            .iter()
            .filter_map(|s| s.storage.recovery_info())
            .collect();
        Some(RecoveryInfo {
            snapshot_seqno: infos.iter().map(|i| i.snapshot_seqno).max().unwrap_or(0),
            replayed_records: infos.iter().map(|i| i.replayed_records).sum(),
            torn_bytes: infos.iter().map(|i| i.torn_bytes).sum(),
            duration,
        })
    }

    /// Writes every resident bound index to its shard's
    /// `<shard-dir>/boundidx/` (best-effort: a failed persist costs the
    /// next open a rebuild, never correctness).
    fn persist_indexes(&self) {
        for shard in self.shards.iter() {
            let Some(dir) = shard.storage.data_dir().map(|d| d.join("boundidx")) else {
                continue;
            };
            shard.bound_index.peek(|idx| {
                if let Some(idx) = idx {
                    let _ = boundidx::persist::save(idx, &dir);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn red_flag() -> RasterImage {
        let mut img = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
        mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, 30, 10), Rgb::RED);
        img
    }

    #[test]
    fn end_to_end_insert_and_query() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base = db.insert_image(&red_flag()).unwrap();
        let edited = db
            .insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 30, 5))
                    .modify(Rgb::RED, Rgb::BLUE)
                    .build(),
            )
            .unwrap();
        let q = ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.2);
        let out = db.query_range(&q).unwrap();
        assert!(out.results.contains(&base));
        assert!(out.results.contains(&edited));
        // All three plans agree on this database.
        for plan in [QueryPlan::Rbm, QueryPlan::Instantiate] {
            let alt = db.query_range_with_plan(&q, plan).unwrap();
            // Instantiate is ground truth (subset); RBM must equal BWM.
            if plan == QueryPlan::Rbm {
                assert_eq!(alt.sorted_results(), out.sorted_results());
            } else {
                for id in alt.sorted_results() {
                    assert!(out.results.contains(&id));
                }
            }
        }
    }

    #[test]
    fn augmentation_pipeline() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let (_b0, _) = db
            .insert_image_with_augmentation(&red_flag(), 0, VariantConfig::default(), 1)
            .unwrap();
        let (base, variants) = db
            .insert_image_with_augmentation(&red_flag(), 4, VariantConfig::default(), 2)
            .unwrap();
        assert_eq!(variants.len(), 4);
        assert_eq!(db.storage().children_of(base), variants);
        let snapshot = db.bwm_snapshot();
        assert_eq!(
            snapshot.classified_count() + snapshot.unclassified_count(),
            4
        );
    }

    #[test]
    fn find_at_least_expands_bases() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        // Base is 0% green; an edited version paints half green.
        let base = db.insert_image(&red_flag()).unwrap();
        let edited = db
            .insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 30, 10))
                    .modify(Rgb::RED, Rgb::GREEN)
                    .build(),
            )
            .unwrap();
        let hits = db.find_at_least(Rgb::GREEN, 0.3).unwrap();
        assert!(hits.contains(&edited));
        assert!(
            hits.contains(&base),
            "provenance expansion returns the base"
        );
    }

    #[test]
    fn similarity_search() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let mut ids = Vec::new();
        for rows in [2i64, 10, 18] {
            let mut img = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
            mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, 30, rows), Rgb::BLUE);
            ids.push(db.insert_image(&img).unwrap());
        }
        let mut probe = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
        mmdb_imaging::draw::fill_rect(&mut probe, &Rect::new(0, 0, 30, 11), Rgb::BLUE);
        let nn = db.similar_to_augmented(&probe, 1).unwrap().neighbours;
        assert_eq!(nn[0].1, ids[1]);
        // A later insert is seen: an exact match now wins.
        let mut closer = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
        mmdb_imaging::draw::fill_rect(&mut closer, &Rect::new(0, 0, 30, 11), Rgb::BLUE);
        let new_id = db.insert_image(&closer).unwrap();
        let nn = db.similar_to_augmented(&probe, 1).unwrap().neighbours;
        assert_eq!(nn[0].1, new_id, "exact-histogram match");
        assert!(nn[0].0 < 1e-9);
    }

    #[test]
    fn augmented_knn_finds_edited_variant() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base = db.insert_image(&red_flag()).unwrap();
        // The variant recolors the red half green.
        let variant = db
            .insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 30, 10))
                    .modify(Rgb::RED, Rgb::GREEN)
                    .build(),
            )
            .unwrap();
        // A probe matching the *variant* exactly.
        let mut probe = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
        mmdb_imaging::draw::fill_rect(&mut probe, &Rect::new(0, 0, 30, 10), Rgb::GREEN);
        let out = db.similar_to_augmented(&probe, 1).unwrap();
        assert_eq!(out.neighbours[0].1, variant);
        assert!(out.neighbours[0].0 < 1e-12);
    }

    #[test]
    fn delete_updates_bwm() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base = db.insert_image(&red_flag()).unwrap();
        let edited = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        assert!(db.delete(base).is_err(), "base with children protected");
        db.delete(edited).unwrap();
        db.delete(base).unwrap();
        let snapshot = db.bwm_snapshot();
        assert_eq!(snapshot.cluster_count(), 0);
        assert_eq!(snapshot.classified_count(), 0);
    }

    /// A per-test unique temp directory, removed on drop (including on
    /// panic). Keyed by pid, wall clock and a process-wide sequence number so
    /// concurrent tests — and stale dirs from earlier runs that recycled the
    /// pid — can never collide.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            let dir = std::env::temp_dir().join(format!(
                "mmdbms_{tag}_{}_{nanos}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn export_and_persistence() {
        let tmp = TempDir::new("facade");
        let dir = tmp.path();
        let base;
        {
            let db = MultimediaDatabase::create(dir, Box::new(RgbQuantizer::default_64())).unwrap();
            base = db.insert_image(&red_flag()).unwrap();
            db.insert_edited(EditSequence::builder(base).blur().build())
                .unwrap();
            db.flush().unwrap();
        }
        let db = MultimediaDatabase::open(dir).unwrap();
        assert!(db.image(base).is_ok());
        // BWM was rebuilt on open.
        assert_eq!(db.bwm_snapshot().classified_count(), 1);
        let out_path = dir.join("exported.ppm");
        db.export_ppm(base, &out_path).unwrap();
        let back = mmdb_imaging::ppm::read_file(&out_path).unwrap();
        assert_eq!(back, red_flag());
    }

    #[test]
    fn warm_start_restores_bound_index() {
        let tmp = TempDir::new("warm");
        let dir = tmp.path();
        let q = |db: &MultimediaDatabase| ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.2);
        {
            let db = MultimediaDatabase::create(dir, Box::new(RgbQuantizer::default_64())).unwrap();
            let base = db.insert_image(&red_flag()).unwrap();
            db.insert_edited(EditSequence::builder(base).blur().build())
                .unwrap();
            // Build the index by serving an indexed query, then persist it.
            let out = db
                .query_range_with_plan(&q(&db), QueryPlan::Indexed)
                .unwrap();
            assert_eq!(out.results.len(), 2);
            db.flush().unwrap();
        }
        {
            let db = MultimediaDatabase::open(dir).unwrap();
            // The persisted index came back *fresh*: its stamp equals the
            // recovered epoch, so it serves without any build or sync.
            let epoch = db.storage().current_epoch();
            let served = db.shards[0]
                .bound_index
                .serve_fresh(epoch, mmdb_boundidx::BoundIndex::len);
            assert_eq!(served, Some(2), "warm index serves at the recovered epoch");
            let a = db
                .query_range_with_plan(&q(&db), QueryPlan::Indexed)
                .unwrap()
                .sorted_results();
            let b = db
                .query_range_with_plan(&q(&db), QueryPlan::Rbm)
                .unwrap()
                .sorted_results();
            assert_eq!(a, b, "indexed ≡ RBM after warm start");

            // Mutate *after* the index was persisted, then flush: the file
            // now trails the catalog by one epoch.
            db.insert_image(&red_flag()).unwrap();
            db.flush().unwrap();
        }
        let db = MultimediaDatabase::open(dir).unwrap();
        let epoch = db.storage().current_epoch();
        let slot = &db.shards[0].bound_index;
        assert_eq!(
            slot.serve_fresh(epoch, |_| ()),
            None,
            "stale warm index is not served as-is"
        );
        let resident = slot.peek(|idx| idx.as_ref().map(|i| i.len()));
        assert_eq!(resident, Some(2), "stale warm index is still installed");
        // The next indexed query catches up *incrementally* (two entries
        // stay resident; only the new image is computed) and then serves.
        let out = db
            .query_range_with_plan(&q(&db), QueryPlan::Indexed)
            .unwrap();
        assert_eq!(out.results.len(), 3);
        assert_eq!(slot.peek(|idx| idx.as_ref().map(|i| i.len())), Some(3));
    }

    /// A flushed `shards`-shard database under `dir`: two red-flag bases
    /// per shard, each with one edited child, and every shard's bound index
    /// built by an Indexed query and persisted.
    fn flushed_sharded(dir: &Path, shards: usize) {
        let quantizer = Box::new(RgbQuantizer::default_64());
        let opts = DurabilityOptions::default();
        let db = MultimediaDatabase::create_sharded_with(dir, quantizer, opts, shards).unwrap();
        for rows in 0..2 * shards as i64 {
            let mut img = RasterImage::filled(30, 20, Rgb::WHITE).unwrap();
            mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, 30, 2 + rows % 16), Rgb::RED);
            let base = db.insert_image(&img).unwrap();
            db.insert_edited(EditSequence::builder(base).blur().build())
                .unwrap();
        }
        let q = ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.2);
        db.query_range_with_plan(&q, QueryPlan::Indexed).unwrap();
        db.flush().unwrap();
    }

    /// A failed open reports the lowest-numbered failing shard and does
    /// nothing to the shards after it: a torn index file there, which a
    /// successful open would delete, stays.
    #[test]
    fn failed_sharded_open_reports_the_lowest_failing_shard() {
        let tmp = TempDir::new("failed_open");
        let dir = tmp.path();
        flushed_sharded(dir, 16);
        // Different lengths, so the two shards' errors differ.
        std::fs::write(shard_dir(dir, 3).join("meta"), [0u8; 3]).unwrap();
        std::fs::write(shard_dir(dir, 9).join("meta"), [0u8; 9]).unwrap();
        let torn = shard_dir(dir, 5).join("boundidx/conservative.idx");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        for attempt in 0..20 {
            let Err(err) = MultimediaDatabase::open(dir) else {
                panic!("open {attempt} succeeded over two corrupt shards");
            };
            let err = err.to_string();
            assert!(
                err.contains("meta file is 3 bytes"),
                "open {attempt}: {err}"
            );
        }
        assert!(torn.exists(), "shard 5 was not opened");
    }

    /// One torn index file costs its own shard a build and nothing else:
    /// the other 15 slots serve the loaded files at their recovered epochs.
    #[test]
    fn one_torn_index_file_leaves_the_other_shards_warm() {
        const TORN: usize = 5;
        let tmp = TempDir::new("partial_warm");
        let dir = tmp.path();
        flushed_sharded(dir, 16);
        let file = shard_dir(dir, TORN).join("boundidx/conservative.idx");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();

        let discards = || {
            telemetry::global()
                .counter("mmdb_boundidx_warm_discards_total")
                .get()
        };
        let before = discards();
        let db = MultimediaDatabase::open(dir).unwrap();
        let opened = std::time::Instant::now();
        assert_eq!(discards() - before, 1, "the torn file is counted");
        assert!(!file.exists(), "the torn file is deleted");
        for (i, shard) in db.shards.iter().enumerate() {
            let epoch = shard.storage.current_epoch();
            let served = shard
                .bound_index
                .serve_fresh(epoch, boundidx::BoundIndex::len);
            if i == TORN {
                assert!(
                    shard.bound_index.peek(|idx| idx.is_none()),
                    "shard {i} slot empty"
                );
            } else {
                assert_eq!(served, Some(4), "shard {i} serves its file fresh");
            }
        }

        let q = ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.2);
        let indexed = db.query_range_with_plan(&q, QueryPlan::Indexed).unwrap();
        let rbm = db.query_range_with_plan(&q, QueryPlan::Rbm).unwrap();
        assert!(!rbm.results.is_empty());
        assert_eq!(
            indexed.sorted_results(),
            rbm.sorted_results(),
            "Indexed ≡ RBM"
        );
        // Only the torn shard's index was built after the open.
        for (i, shard) in db.shards.iter().enumerate() {
            let stamped_since_open = shard.bound_index.peek(|idx| {
                let since_open = opened.elapsed();
                idx.unwrap().since_last_sync() < since_open
            });
            assert_eq!(stamped_since_open, i == TORN, "shard {i}");
        }
    }

    /// A sharded open reports the wall time of its whole pass: never less
    /// than the shards' own recoveries together (the longest shard alone is
    /// less). A single shard reports its own.
    #[test]
    fn recovery_duration_covers_every_shard() {
        let tmp = TempDir::new("recovery_wall");
        let dir = tmp.path();
        flushed_sharded(dir, 4);
        let db = MultimediaDatabase::open(dir).unwrap();
        let total = db.recovery_info().unwrap().duration;
        let sum: std::time::Duration = (0..db.shard_count())
            .map(|i| db.shard_storage(i).recovery_info().unwrap().duration)
            .sum();
        assert!(total >= sum, "{total:?} < {sum:?}");

        let tmp = TempDir::new("recovery_single");
        flushed_sharded(tmp.path(), 1);
        let db = MultimediaDatabase::open(tmp.path()).unwrap();
        let own = db.storage().recovery_info().unwrap().duration;
        assert_eq!(db.recovery_info().unwrap().duration, own);
    }

    #[test]
    fn create_refuses_an_existing_database_at_any_shard_count() {
        let tmp = TempDir::new("recreate");
        let dir = tmp.path();
        let quantizer = || Box::new(RgbQuantizer::default_64());
        let opts = DurabilityOptions::default();
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        drop(MultimediaDatabase::create_sharded_with(dir, quantizer(), opts, 4).unwrap());
        let before = listing();
        // A sharded root has no `meta`; the manifest must stop a
        // single-shard create from laying an engine beside the shards.
        for shards in [1, 4] {
            assert!(
                MultimediaDatabase::create_sharded_with(dir, quantizer(), opts, shards).is_err(),
                "create with {shards} shard(s) over a 4-shard database"
            );
            assert_eq!(listing(), before);
        }
        assert_eq!(MultimediaDatabase::open(dir).unwrap().shard_count(), 4);
    }

    #[test]
    fn slow_query_reaches_flight_recorder() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base = db.insert_image(&red_flag()).unwrap();
        db.insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        // A zero threshold marks every query slow.
        telemetry::set_slow_query_threshold(std::time::Duration::ZERO);
        let q = ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.2);
        db.query_range(&q).unwrap();
        let events = db.flight_recorder().events();
        let kind_count = |k: telemetry::EventKind| events.iter().filter(|e| e.kind == k).count();
        assert!(kind_count(telemetry::EventKind::IngestAccepted) >= 1);
        assert!(kind_count(telemetry::EventKind::QueryStart) >= 1);
        assert!(kind_count(telemetry::EventKind::QueryEnd) >= 1);
        assert!(kind_count(telemetry::EventKind::SlowQuery) >= 1);
        // Restore the process-wide default for other tests.
        telemetry::set_slow_query_threshold(telemetry::DEFAULT_SLOW_QUERY_THRESHOLD);
    }

    #[test]
    fn stats_accessible() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base = db.insert_image(&red_flag()).unwrap();
        db.insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        let s = db.stats();
        assert_eq!(s.binary_count, 1);
        assert_eq!(s.edited_count, 1);
        assert!(s.binary_bytes > 100);
    }
}
