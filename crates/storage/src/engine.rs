//! The storage engine facade.

use crate::blobstore::BlobStore;
use crate::catalog::{Catalog, CatalogEntry, StoredKind};
use crate::durability::{
    apply_record, blob_file_name, gc_blob_generations, map_durable, DurabilityOptions,
    RecoveryInfo, WalRecord,
};
use crate::epoch::MutationEpoch;
use crate::error::StorageError;
use crate::lru::LruCache;
use crate::Result;
use mmdb_analysis::{AnalysisReport, Analyzer, Diagnostic, Severity};
use mmdb_bwm::{BwmStructure, SequenceStore};
use mmdb_conc::sync::atomic::{AtomicU64, Ordering};
use mmdb_conc::sync::{Mutex, RwLock, RwLockReadGuard};
use mmdb_durable::meta::{read_meta, write_meta, Meta};
use mmdb_durable::{FsyncPolicy, SnapshotStore, Wal, WalOptions};
use mmdb_editops::{
    EditError, EditSequence, ExecOptions, ImageId, ImageResolver, InstantiationEngine,
};
use mmdb_histogram::{quantizer::from_description, ColorHistogram, Quantizer};
use mmdb_imaging::ppm::{self, PnmFormat};
use mmdb_imaging::{RasterImage, Rgb};
use mmdb_rules::{BoundProgram, ImageInfo, InfoResolver, RuleEngine, RuleError, RuleProfile};
use mmdb_telemetry::{counter, histogram, EventKind};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Default raster-cache capacity (entries).
const CACHE_ENTRIES: usize = 256;
/// Default raster-cache byte budget (256 MiB of decoded pixels).
const CACHE_BYTES: usize = 256 << 20;

/// Aggregate storage statistics — the numbers behind the paper's space
/// argument for storing edited images as operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of conventionally stored images.
    pub binary_count: usize,
    /// Number of images stored as edit sequences.
    pub edited_count: usize,
    /// Bytes of blob storage consumed by binary images.
    pub binary_bytes: u64,
    /// Bytes consumed by encoded edit sequences (catalog-resident).
    pub edited_bytes: u64,
    /// Raster cache hits since open.
    pub cache_hits: u64,
    /// Raster cache misses since open.
    pub cache_misses: u64,
}

impl StorageStats {
    /// How many times smaller the edit-sequence representation is than the
    /// binary representation, per image on average. `None` when either side
    /// is empty.
    pub fn space_saving_factor(&self) -> Option<f64> {
        if self.binary_count == 0 || self.edited_count == 0 || self.edited_bytes == 0 {
            return None;
        }
        let avg_binary = self.binary_bytes as f64 / self.binary_count as f64;
        let avg_edited = self.edited_bytes as f64 / self.edited_count as f64;
        Some(avg_binary / avg_edited)
    }
}

/// What is true of a shard, under the engine's one lock: the catalog and
/// the paper's Figure 1 structure over it, which every insert and delete
/// keeps in step inside the write section it already has. Figure 1 carries
/// what a scan reads — each cluster its base's histogram, shared with the
/// catalog, and each edited image the cell its BOUNDS program is compiled
/// into on first use. Everything else derived from a catalog is built
/// lazily, outside, against the epoch.
struct Inner {
    catalog: Catalog,
    blobs: BlobStore,
    structure: BwmStructure,
}

/// Figure 1 over a whole catalog: what inserting its images one by one
/// would have built. Every cluster shares its base's histogram with the
/// catalog; no program is compiled.
fn figure_1(catalog: &Catalog) -> BwmStructure {
    let mut structure = BwmStructure::new();
    for (id, entry) in catalog.iter() {
        if let CatalogEntry::Binary { histogram, .. } = entry {
            structure.insert_binary(id, Arc::clone(histogram));
        }
    }
    for (id, entry) in catalog.iter() {
        if let CatalogEntry::Edited { sequence } = entry {
            structure.insert_edited(id, sequence);
        }
    }
    structure
}

/// Counts an edited image ingest refuses for `errors`, its error-level
/// findings, and words the refusal.
#[cold]
fn refuse(errors: &[Diagnostic]) -> StorageError {
    mmdb_analysis::record_diagnostics(errors);
    counter!(r#"mmdb_storage_ingest_total{result="rejected"}"#).inc();
    if mmdb_telemetry::instrumentation_enabled() {
        let codes: Vec<&str> = errors.iter().map(|d| d.code.code()).collect();
        mmdb_telemetry::recorder().record(
            EventKind::IngestRejected,
            format!("codes={}", codes.join(",")),
            &[("errors", errors.len() as u64)],
        );
    }
    let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
    StorageError::InvalidSequence(errors.join("; "))
}

/// One consistent read of a shard — catalog and Figure 1 structure under
/// the engine's one lock — held for as long as a scan runs (the shape of an
/// LMDB reader: taken once, then many gets). It resolves **this shard's**
/// ids and takes no further lock; those are all an edited image stored here
/// may name ([`StorageEngine::insert_edited`]), so an id it does not hold is
/// unknown. The view is nothing but the lock guard, so no locking engine
/// method can be reached through it — under a view, one would deadlock
/// behind a queued writer.
pub struct ReadView<'a>(RwLockReadGuard<'a, Inner>);

impl ReadView<'_> {
    /// The shard's Main and Unclassified components, with the programs
    /// compiled so far.
    pub fn structure(&self) -> &BwmStructure {
        &self.0.structure
    }

    /// Every binary image with its exact histogram, ascending by id.
    pub fn binaries(&self) -> impl Iterator<Item = (ImageId, &ColorHistogram)> + '_ {
        self.0.catalog.iter().filter_map(|(id, e)| match e {
            CatalogEntry::Binary { histogram, .. } => Some((id, &**histogram)),
            CatalogEntry::Edited { .. } => None,
        })
    }

    /// Ids of all edited images, ascending.
    pub fn edited(&self) -> impl Iterator<Item = ImageId> + '_ {
        let entries = self.0.catalog.iter();
        entries.filter_map(|(id, e)| (e.kind() == StoredKind::Edited).then_some(id))
    }
}

impl InfoResolver for ReadView<'_> {
    fn info(&self, id: ImageId) -> Option<ImageInfo> {
        match self.0.catalog.get(id)? {
            CatalogEntry::Binary {
                histogram,
                width,
                height,
                ..
            } => Some(ImageInfo {
                histogram: Arc::clone(histogram),
                width: *width,
                height: *height,
            }),
            CatalogEntry::Edited { .. } => None,
        }
    }
}

impl SequenceStore for ReadView<'_> {
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        match self.0.catalog.get(id) {
            Some(CatalogEntry::Edited { sequence, .. }) => Some(Arc::clone(sequence)),
            _ => None,
        }
    }

    /// The program kept in the image's Figure 1 entry — found from its
    /// base — compiled on first use by `engine`, which every caller builds
    /// from this database's quantizer and background, and lent for as long
    /// as the view lives.
    fn program(
        &self,
        id: ImageId,
        engine: &RuleEngine<'_>,
        resolver: &dyn InfoResolver,
    ) -> mmdb_rules::Result<Cow<'_, BoundProgram>> {
        let base = self.0.catalog.base_of(id);
        let cell = base.and_then(|base| self.0.structure.program_cell(id, base));
        let cell = cell.ok_or(RuleError::UnknownImage(id))?;
        mmdb_bwm::kept_program(cell, id, self, engine, resolver).map(Cow::Borrowed)
    }
}

/// Durable-layer state of a file-backed engine: the WAL, the snapshot
/// store, and the bookkeeping the background maintenance path reads.
///
/// Lock order (deadlock freedom): `inner` before `wal` — the mutation path
/// holds the exclusive catalog lock while appending, and the snapshot path
/// reads the log position while holding the shared catalog lock. Nothing
/// acquires `inner` while holding `wal`.
struct DurableState {
    dir: PathBuf,
    wal: Mutex<Wal>,
    snaps: SnapshotStore,
    /// Generation of the blob file currently written to; bumped by
    /// `compact`, committed by the snapshot that references it.
    blob_gen: AtomicU64,
    /// Records appended since the last snapshot (background cadence).
    appended_since_snapshot: AtomicU64,
    /// Last group-commit fsync under `FsyncPolicy::Interval`.
    last_interval_sync: Mutex<Instant>,
    /// Held through [`DurableState::commit_snapshot`]: a `flush` and a
    /// background snapshot of one cover point write the same temp file,
    /// and two prunes remove the same old snapshot.
    committing: Mutex<()>,
    opts: DurabilityOptions,
    recovery: RecoveryInfo,
}

impl DurableState {
    /// The tail every snapshot shares, once its blobs are durable and its
    /// payload is encoded: write the snapshot that references blob
    /// generation `gen` (the commit point), restart the snapshot cadence,
    /// then fsync the WAL, seal its active segment when the snapshot covers
    /// every record in it (so the next open scans none of them), and drop
    /// the segments and blob generations no retained snapshot needs. A
    /// snapshot that writes raced past covers less and seals nothing.
    /// Garbage collection keeps the generation the engine writes to *now*,
    /// which a compaction racing this snapshot may already have moved past
    /// `gen`.
    fn commit_snapshot(&self, covered: u64, gen: u64, payload: &[u8]) -> Result<()> {
        let _committing = self.committing.lock();
        self.snaps
            .write(covered, gen, payload)
            .map_err(map_durable)?;
        self.appended_since_snapshot.store(0, Ordering::Relaxed);
        let oldest = self
            .snaps
            .oldest_covered()
            .map_err(map_durable)?
            .unwrap_or(covered);
        {
            let mut wal = self.wal.lock();
            wal.sync().map_err(map_durable)?;
            if wal.last_seqno() == covered {
                wal.rotate().map_err(map_durable)?;
            }
            wal.gc(oldest).map_err(map_durable)?;
        }
        gc_blob_generations(
            &self.dir,
            &self.snaps,
            self.blob_gen.load(Ordering::Relaxed),
        )
    }
}

/// The MMDBMS storage engine.
///
/// Thread-safe: reads run under a shared lock, mutations under an exclusive
/// lock, and instantiation never holds the catalog lock while executing
/// operations (so concurrent queries can resolve bases/targets).
pub struct StorageEngine {
    inner: RwLock<Inner>,
    cache: Mutex<LruCache<ImageId, Arc<RasterImage>>>,
    quantizer: Box<dyn Quantizer>,
    background: Rgb,
    durable: Option<DurableState>,
    /// Mutation epoch: bumped (under the exclusive catalog lock) by every
    /// insert and delete. Derived structures such as the bound-interval
    /// index stamp themselves with the epoch they were built from and must
    /// refuse to serve when it trails [`StorageEngine::current_epoch`] —
    /// that comparison is what makes "a stale entry is never served" a
    /// checkable invariant rather than a convention. See
    /// [`MutationEpoch`] for the ordering rules, and the `mmdb-conc` model
    /// tests for the machine-checked version of this argument.
    epoch: MutationEpoch,
}

impl StorageEngine {
    /// Creates a new on-disk database in `dir` (created if missing) with
    /// default durability options.
    ///
    /// # Errors
    /// Fails when a database already exists in `dir`.
    pub fn create(dir: &Path, quantizer: Box<dyn Quantizer>) -> Result<Self> {
        Self::create_with(dir, quantizer, DurabilityOptions::default())
    }

    /// Creates a new on-disk database with explicit durability options.
    ///
    /// The data dir layout: a `meta` version header, `wal/` (segmented
    /// write-ahead log), `snapshots/` (atomic catalog snapshots), and the
    /// blob generation files (`blobs.mmdb`, `blobs-<n>.mmdb`). An initial
    /// empty snapshot is written immediately so the directory is complete
    /// and recoverable from the moment `create` returns.
    ///
    /// # Errors
    /// Fails when a database already exists in `dir`.
    pub fn create_with(
        dir: &Path,
        quantizer: Box<dyn Quantizer>,
        opts: DurabilityOptions,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        if read_meta(dir).map_err(map_durable)?.is_some() {
            return Err(StorageError::Corrupt(format!(
                "database already exists at {}",
                dir.display()
            )));
        }
        write_meta(dir, Meta::current()).map_err(map_durable)?;
        let blobs = BlobStore::open(&dir.join(blob_file_name(0)))?;
        let snaps = SnapshotStore::open(&dir.join("snapshots")).map_err(map_durable)?;
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
            fsync: opts.fsync,
        };
        let (wal, _) = Wal::open(&dir.join("wal"), wal_opts, 0).map_err(map_durable)?;
        let engine = StorageEngine {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(quantizer.describe()),
                blobs,
                structure: BwmStructure::new(),
            }),
            cache: Mutex::new(LruCache::new(CACHE_ENTRIES, CACHE_BYTES)),
            quantizer,
            background: Rgb::BLACK,
            durable: Some(DurableState {
                dir: dir.to_path_buf(),
                wal: Mutex::new(wal),
                snaps,
                blob_gen: AtomicU64::new(0),
                appended_since_snapshot: AtomicU64::new(0),
                last_interval_sync: Mutex::new(Instant::now()),
                committing: Mutex::new(()),
                opts,
                recovery: RecoveryInfo::default(),
            }),
            epoch: MutationEpoch::new(),
        };
        engine.snapshot_now()?;
        Ok(engine)
    }

    /// Opens an existing on-disk database with default durability options,
    /// reconstructing the quantizer from the recovered catalog.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// Opens an existing on-disk database with explicit durability options.
    ///
    /// Recovery contract: load the newest snapshot that validates (falling
    /// back to the previous one if the newest is damaged), replay every WAL
    /// record above its cover point, and tolerate a torn final record at
    /// the very end of the log. A directory without a `meta` header is not
    /// a database.
    pub fn open_with(dir: &Path, opts: DurabilityOptions) -> Result<Self> {
        let started = Instant::now();
        read_meta(dir)
            .map_err(map_durable)?
            .ok_or_else(|| StorageError::Corrupt(format!("no database at {}", dir.display())))?
            .check_readable()
            .map_err(map_durable)?;
        let snap_dir = dir.join("snapshots");
        mmdb_durable::snapshot::remove_tmp_files(&snap_dir);
        let snaps = SnapshotStore::open(&snap_dir).map_err(map_durable)?;
        let snap = snaps.load_latest().map_err(map_durable)?.ok_or_else(|| {
            StorageError::Corrupt(format!("no snapshot in {}", snap_dir.display()))
        })?;
        let (mut catalog, free_list) = Catalog::decode(&snap.payload)?;
        let quantizer = from_description(catalog.quantizer_desc()).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "unknown quantizer {:?} in catalog",
                catalog.quantizer_desc()
            ))
        })?;
        let blob_path = dir.join(blob_file_name(snap.blob_gen));
        if !catalog.is_empty() && !blob_path.exists() {
            return Err(StorageError::Corrupt(format!(
                "blob generation file {} is missing",
                blob_path.display()
            )));
        }
        let mut blobs = BlobStore::open(&blob_path)?;
        blobs.restore_free_list(free_list);
        gc_blob_generations(dir, &snaps, snap.blob_gen)?;

        let wal_dir = dir.join("wal");
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
            fsync: opts.fsync,
        };
        let (mut wal, wal_stats) =
            Wal::open(&wal_dir, wal_opts, snap.covered_seqno).map_err(map_durable)?;
        if wal.last_seqno() < snap.covered_seqno {
            // The log's surviving tail predates the snapshot (lost under a
            // lax fsync policy): nothing in it is needed, and reusing its
            // sequence numbers would alias covered records. Restart the log
            // at the snapshot's cover point.
            drop(wal);
            std::fs::remove_dir_all(&wal_dir)?;
            let reopened =
                Wal::open(&wal_dir, wal_opts, snap.covered_seqno).map_err(map_durable)?;
            wal = reopened.0;
        }
        let replayed = wal
            .replay(snap.covered_seqno, |seqno, payload| {
                apply_record(&mut catalog, &mut blobs, quantizer.as_ref(), seqno, payload)
                    .map_err(|e| mmdb_durable::DurableError::Corrupt(e.to_string()))
            })
            .map_err(map_durable)?;
        let structure = figure_1(&catalog);
        let last_seqno = wal.last_seqno();
        let recovery = RecoveryInfo {
            snapshot_seqno: snap.covered_seqno,
            replayed_records: replayed,
            torn_bytes: wal_stats.torn_bytes,
            duration: started.elapsed(),
        };
        histogram!("mmdb_recovery_seconds").observe(recovery.duration);
        mmdb_telemetry::recorder().record(
            EventKind::Recovery,
            format!(
                "snapshot_seqno={} replayed={replayed} torn_bytes={} last_seqno={last_seqno}",
                snap.covered_seqno, wal_stats.torn_bytes
            ),
            &[
                ("replayed_records", replayed),
                ("torn_bytes", wal_stats.torn_bytes),
            ],
        );

        let engine = StorageEngine {
            inner: RwLock::new(Inner {
                catalog,
                blobs,
                structure,
            }),
            cache: Mutex::new(LruCache::new(CACHE_ENTRIES, CACHE_BYTES)),
            quantizer,
            background: Rgb::BLACK,
            durable: Some(DurableState {
                dir: dir.to_path_buf(),
                wal: Mutex::new(wal),
                snaps,
                blob_gen: AtomicU64::new(snap.blob_gen),
                appended_since_snapshot: AtomicU64::new(0),
                last_interval_sync: Mutex::new(Instant::now()),
                committing: Mutex::new(()),
                opts,
                recovery,
            }),
            epoch: MutationEpoch::new(),
        };
        // Every acknowledged mutation is one WAL record, so the recovered
        // epoch is the log's last sequence number; the two stay in lockstep
        // from here on (see `MutationEpoch::restore`).
        engine.epoch.restore(last_seqno);
        Ok(engine)
    }

    /// Creates an ephemeral in-memory database (tests, benchmarks).
    pub fn in_memory(quantizer: Box<dyn Quantizer>) -> Self {
        StorageEngine {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(quantizer.describe()),
                blobs: BlobStore::in_memory(),
                structure: BwmStructure::new(),
            }),
            cache: Mutex::new(LruCache::new(CACHE_ENTRIES, CACHE_BYTES)),
            quantizer,
            background: Rgb::BLACK,
            durable: None,
            epoch: MutationEpoch::new(),
        }
    }

    /// What recovery found and did when this engine opened its data dir.
    /// `None` for in-memory and freshly created databases.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.durable
            .as_ref()
            .map(|d| d.recovery)
            .filter(|r| r.duration > std::time::Duration::ZERO)
    }

    /// The data directory of a file-backed engine.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Appends one mutation record to the WAL. Called under the exclusive
    /// catalog lock *before* the in-memory apply: the record is durable
    /// (per the fsync policy) by the time the mutation is acknowledged, and
    /// a crash between append and apply loses only an unacknowledged
    /// mutation — replay reconstructs the record's effect from the log.
    fn log_mutation(&self, record: &WalRecord<'_>) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let mut wal = d.wal.lock();
        let seqno = wal.append(&record.encode()).map_err(map_durable)?;
        debug_assert_eq!(
            seqno,
            self.epoch.current() + 1,
            "WAL seqno and mutation epoch must advance in lockstep"
        );
        // Relaxed: a background-cadence counter, read approximately.
        d.appended_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The current mutation epoch. Readers building derived structures must
    /// capture the epoch *before* reading catalog state: a racing mutation
    /// then leaves the derived stamp behind the true epoch (forcing a
    /// re-sync) rather than ahead of it (serving stale data).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.current()
    }

    fn bump_epoch(&self) {
        self.epoch.bump();
    }

    // ── Sharded deployment support ─────────────────────────────────────
    //
    // A sharded database is N independent engines with disjoint id spaces
    // (strided allocation). An edited image, its base and every merge
    // target it names live on one shard, so each engine stays a complete,
    // self-contained single-shard database that never consults another:
    // its WAL, epoch, and snapshot story are unchanged, and `stride == 1`
    // (the default) is exactly the historical single-engine behavior.

    /// Restricts this engine's id allocator to the congruence class
    /// `(id - 1) % stride == phase`, and [`StorageEngine::insert_edited`] to
    /// references in it. Applied by the sharded facade right after
    /// create/open (the configuration is not persisted; WAL replay
    /// re-inserts original ids regardless of class, then this realigns the
    /// allocation floor upward into the class).
    pub fn set_id_stride(&self, phase: u64, stride: u64) {
        self.inner.write().catalog.set_stride(phase, stride);
    }

    /// The quantizer every histogram in this database uses.
    pub fn quantizer(&self) -> &dyn Quantizer {
        self.quantizer.as_ref()
    }

    /// The background color used when instantiating edit sequences.
    pub fn background(&self) -> Rgb {
        self.background
    }

    /// Inserts a conventionally stored image; its exact histogram is
    /// extracted now, at insert time (§1: feature extraction happens "as
    /// [each object] is inserted into the underlying database").
    pub fn insert_binary(&self, image: &RasterImage) -> Result<ImageId> {
        let encoded = ppm::encode(image, PnmFormat::RawRgb);
        let histogram = Arc::new(ColorHistogram::extract(image, self.quantizer.as_ref()));
        counter!("mmdb_storage_blob_writes_total").inc();
        counter!("mmdb_storage_blob_write_bytes_total").add(encoded.len() as u64);
        let mut inner = self.inner.write();
        let blob = inner.blobs.put(&encoded)?;
        let id = inner.catalog.allocate_id();
        self.log_mutation(&WalRecord::InsertBinary {
            id,
            width: image.width(),
            height: image.height(),
            ppm: &encoded,
        })?;
        inner.catalog.insert(
            id,
            CatalogEntry::Binary {
                blob,
                width: image.width(),
                height: image.height(),
                histogram: Arc::clone(&histogram),
            },
        );
        inner.structure.insert_binary(id, histogram);
        self.bump_epoch();
        Ok(id)
    }

    /// Inserts an image stored as a sequence of editing operations. The base
    /// and every merge target must already be stored as *binary* images on
    /// this shard — the paper's model derives edited images from originals,
    /// the rule engine needs exact histograms for every referenced image, and
    /// a scan reads them under this shard's lock alone
    /// ([`Catalog::check_refs`]). A reference outside this shard's id class
    /// is refused without looking anywhere else. The sequence must then
    /// compile for BOUNDS, which steps the executor's geometry: one that
    /// does not is refused with [`mmdb_analysis::compile_refusal`], so
    /// every stored edited image is processable by RBM, BWM and the
    /// executor alike.
    pub fn insert_edited(&self, sequence: EditSequence) -> Result<ImageId> {
        let started = Instant::now();
        // Phase 1 (shared lock): references, then the compile BOUNDS needs.
        // The program is dropped: kept, it would sit among this ingest's
        // other allocations, and a BWM scan over programs compiled in its
        // own walk order runs ≈ 25–40 % faster (`scan_paper`).
        {
            let view = self.read_view();
            view.0.catalog.check_refs(&sequence)?;
            let compiled = self.rule_engine().compile(&sequence, &view);
            compiled.map_err(|e| refuse(&mmdb_analysis::compile_refusal(&sequence, &view, &e)))?;
        }
        // Phase 2: re-verify references under the exclusive lock (a
        // concurrent delete may have raced phase 1), then insert.
        let mut inner = self.inner.write();
        inner.catalog.check_refs(&sequence)?;
        let id = inner.catalog.allocate_id();
        self.log_mutation(&WalRecord::InsertEdited {
            id,
            sequence: &sequence,
        })?;
        let (base, ops) = (sequence.base, sequence.len());
        inner.structure.insert_edited(id, &sequence);
        inner
            .catalog
            .insert(id, CatalogEntry::edited(Arc::new(sequence)));
        self.bump_epoch();
        counter!("mmdb_storage_edited_inserts_total").inc();
        counter!(r#"mmdb_storage_ingest_total{result="accepted"}"#).inc();
        histogram!("mmdb_storage_ingest_latency_seconds").observe(started.elapsed());
        if mmdb_telemetry::instrumentation_enabled() {
            mmdb_telemetry::recorder().record(
                mmdb_telemetry::EventKind::IngestAccepted,
                format!("{id} (base {base})"),
                &[("ops", ops as u64)],
            );
        }
        Ok(id)
    }

    /// The storage kind of `id`.
    pub fn kind(&self, id: ImageId) -> Result<StoredKind> {
        self.inner
            .read()
            .catalog
            .get(id)
            .map(super::catalog::CatalogEntry::kind)
            .ok_or(StorageError::NotFound(id))
    }

    /// True when `id` exists.
    pub fn contains(&self, id: ImageId) -> bool {
        self.inner.read().catalog.get(id).is_some()
    }

    /// All ids, ascending.
    pub fn ids(&self) -> Vec<ImageId> {
        self.inner.read().catalog.ids().collect()
    }

    /// Ids of all binary images, ascending.
    pub fn binary_ids(&self) -> Vec<ImageId> {
        self.read_view().binaries().map(|(id, _)| id).collect()
    }

    /// Ids of all edited images, ascending.
    pub fn edited_ids(&self) -> Vec<ImageId> {
        self.read_view().edited().collect()
    }

    /// Edited images derived from `base`.
    pub fn children_of(&self, base: ImageId) -> Vec<ImageId> {
        self.inner.read().catalog.children_of(base).to_vec()
    }

    /// The base image of an edited image.
    pub fn base_of(&self, id: ImageId) -> Option<ImageId> {
        self.inner.read().catalog.base_of(id)
    }

    /// The stored edit sequence of `id`, or `None` for binary images.
    pub fn edit_sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        self.read_view().sequence(id)
    }

    /// Takes this shard's one lock, shared, for a whole scan. The caller
    /// works through the view alone until it drops it: see [`ReadView`].
    pub fn read_view(&self) -> ReadView<'_> {
        ReadView(self.inner.read())
    }

    /// A copy of this shard's Figure 1 structure as of now.
    pub fn bwm_snapshot(&self) -> BwmStructure {
        self.read_view().structure().clone()
    }

    fn rule_engine(&self) -> RuleEngine<'_> {
        RuleEngine::with_background(
            self.quantizer.as_ref(),
            RuleProfile::default(),
            self.background,
        )
    }

    /// The stored sequence of edited image `id`, compiled for BOUNDS
    /// ([`mmdb_rules::RuleEngine::compile`] with this database's quantizer
    /// and background). Compiled by the first caller — this, the bound
    /// index, or an RBM/BWM scan walking the entry — and kept in `id`'s
    /// Figure 1 entry from then on, the one place a program lives (found
    /// from the sequence's base, then by binary search on `id`). `open`
    /// pays nothing, ingest keeps nothing (see
    /// [`StorageEngine::insert_edited`]), nothing is persisted, and nothing
    /// ever invalidates it: the sequence, the quantizer, the background,
    /// and the dimensions and histograms of the binary images it names —
    /// which the program keeps for its merge targets — are fixed while the
    /// image is stored, since [`StorageEngine::delete`] refuses any image it
    /// names, and ids are never reused.
    ///
    /// # Errors
    /// [`RuleError::UnknownImage`] when `id` is not a stored edited image,
    /// or whatever compilation reports (never cached).
    pub fn bound_program(&self, id: ImageId) -> mmdb_rules::Result<BoundProgram> {
        let view = self.read_view();
        let program = view.program(id, &self.rule_engine(), &view);
        program.map(Cow::into_owned)
    }

    /// The instantiated raster for `id` — decoded from the blob store for
    /// binary images, or produced by executing the edit sequence for edited
    /// images. Results are LRU-cached.
    pub fn raster(&self, id: ImageId) -> Result<Arc<RasterImage>> {
        if let Some(img) = self.cache.lock().get(&id) {
            counter!("mmdb_storage_cache_hits_total").inc();
            return Ok(Arc::clone(img));
        }
        counter!("mmdb_storage_cache_misses_total").inc();
        // Fetch what we need under the read lock, then do the expensive work
        // (decode / instantiate) without holding it.
        enum Plan {
            Decode(Vec<u8>),
            Instantiate(Arc<EditSequence>),
        }
        let plan = {
            let inner = self.inner.read();
            match inner.catalog.get(id) {
                None => return Err(StorageError::NotFound(id)),
                Some(CatalogEntry::Binary { blob, .. }) => Plan::Decode(inner.blobs.get(*blob)?),
                Some(CatalogEntry::Edited { sequence, .. }) => {
                    Plan::Instantiate(Arc::clone(sequence))
                }
            }
        };
        let image = match plan {
            Plan::Decode(bytes) => {
                counter!("mmdb_storage_blob_reads_total").inc();
                counter!("mmdb_storage_blob_read_bytes_total").add(bytes.len() as u64);
                ppm::decode(&bytes)?
            }
            Plan::Instantiate(seq) => {
                let opts = ExecOptions {
                    background: self.background,
                };
                let started = Instant::now();
                let image = InstantiationEngine::with_options(self, opts).instantiate(&seq)?;
                counter!("mmdb_storage_instantiations_total").inc();
                histogram!("mmdb_storage_instantiation_latency_seconds").observe(started.elapsed());
                image
            }
        };
        let image = Arc::new(image);
        let weight = image.pixel_count() as usize * 3;
        let evicted = self.cache.lock().insert(id, Arc::clone(&image), weight);
        if evicted > 0 {
            counter!("mmdb_storage_cache_evictions_total").add(evicted as u64);
            if mmdb_telemetry::instrumentation_enabled() {
                mmdb_telemetry::recorder().record(
                    mmdb_telemetry::EventKind::CacheEviction,
                    format!("admitting {id} evicted {evicted} raster(s)"),
                    &[("evicted", evicted as u64), ("bytes", weight as u64)],
                );
            }
        }
        Ok(image)
    }

    /// The color histogram of `id`. Exact and O(1) for binary images; for
    /// edited images this **instantiates** (the expensive path the RBM/BWM
    /// query processing exists to avoid — exposed for ground-truth checks
    /// and result verification).
    pub fn histogram(&self, id: ImageId) -> Result<Arc<ColorHistogram>> {
        if let Some(CatalogEntry::Binary { histogram, .. }) = self.inner.read().catalog.get(id) {
            return Ok(Arc::clone(histogram));
        }
        // An unknown id is `raster`'s to report, as `NotFound(id)`.
        let raster = self.raster(id)?;
        Ok(Arc::new(ColorHistogram::extract(
            &raster,
            self.quantizer.as_ref(),
        )))
    }

    /// Deletes `id`. A binary image that a stored edited image names — as
    /// its base or as a merge target — is refused with
    /// [`StorageError::StillReferenced`] ([`Catalog::check_delete`], O(1)).
    pub fn delete(&self, id: ImageId) -> Result<()> {
        let mut inner = self.inner.write();
        inner.catalog.check_delete(id)?;
        self.log_mutation(&WalRecord::Delete { id })?;
        match inner.catalog.remove(id) {
            Some(CatalogEntry::Binary { blob, .. }) => {
                inner.blobs.delete(blob);
                // The cluster is empty: referenced images were refused above.
                inner.structure.remove_binary(id);
            }
            Some(CatalogEntry::Edited { sequence, .. }) => {
                inner.structure.remove_edited(id, sequence.base);
            }
            None => unreachable!("found above, under this same lock"),
        }
        self.bump_epoch();
        drop(inner);
        self.cache.lock().invalidate(&id);
        Ok(())
    }

    /// Persists the current state: a catalog snapshot (atomic, via temp
    /// file + rename) plus a group-commit fsync of the WAL's active
    /// segment, which is then sealed when the snapshot covers every record
    /// in it. A no-op for in-memory databases.
    pub fn flush(&self) -> Result<()> {
        self.snapshot_now()
    }

    /// Writes a snapshot of the current catalog, fsyncs the WAL, seals its
    /// active segment when the snapshot covers every record in the log,
    /// and garbage-collects WAL segments and blob generations the retained
    /// snapshots no longer need. A no-op for in-memory databases.
    pub fn snapshot_now(&self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let inner = self.inner.read();
        // Blob bytes the snapshot references must be durable before the
        // snapshot commits — records at or below the cover point are never
        // replayed, so nothing else would rewrite them.
        inner.blobs.sync()?;
        let payload = inner.catalog.encode(inner.blobs.free_list());
        let covered = d.wal.lock().last_seqno();
        // Relaxed on `blob_gen`: only `compact` stores it, and `compact`
        // holds the exclusive catalog lock while doing so — read here, under
        // the shared one, it is the generation `payload` refers to.
        let gen = d.blob_gen.load(Ordering::Relaxed);
        drop(inner);
        d.commit_snapshot(covered, gen, &payload)
    }

    /// Forces the WAL's active segment to stable storage. Used by clean
    /// shutdown and by the background group-commit path.
    pub fn wal_sync(&self) -> Result<()> {
        if let Some(d) = &self.durable {
            d.wal.lock().sync().map_err(map_durable)?;
        }
        Ok(())
    }

    /// One background maintenance step, intended for a periodic thread off
    /// the request path: a group-commit fsync when the `Interval` policy's
    /// deadline has passed, and a snapshot (with segment GC) once
    /// `snapshot_every` records have accumulated since the last one.
    pub fn maintenance_tick(&self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        if let FsyncPolicy::Interval(every) = d.opts.fsync {
            let mut last = d.last_interval_sync.lock();
            if last.elapsed() >= every {
                d.wal.lock().sync().map_err(map_durable)?;
                *last = Instant::now();
            }
        }
        if d.appended_since_snapshot.load(Ordering::Relaxed) >= d.opts.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Compacts the blob store: rewrites every live blob contiguously,
    /// eliminating the holes left by deletions, and updates the catalog's
    /// blob references. Returns the number of bytes reclaimed.
    ///
    /// File-backed databases write the next blob *generation* file
    /// (`blobs-<n>.mmdb`) and commit it by writing a snapshot that
    /// references it — until that snapshot is durable, recovery uses the
    /// previous snapshot and the previous generation file, which is only
    /// garbage-collected once no retained snapshot references it. A crash
    /// at any point therefore leaves a consistent database.
    pub fn compact(&self) -> Result<u64> {
        let mut inner = self.inner.write();
        let before = inner.blobs.file_size();
        let target = self.durable.as_ref().map(|d| {
            // Relaxed: `compact` is the only writer of `blob_gen` and runs
            // under the exclusive catalog lock.
            let gen = d.blob_gen.load(Ordering::Relaxed) + 1;
            (d.dir.join(blob_file_name(gen)), gen)
        });
        let mut fresh = match &target {
            Some((path, _)) => {
                // Debris of a compaction that crashed before committing.
                std::fs::remove_file(path).ok();
                BlobStore::open(path)?
            }
            None => BlobStore::in_memory(),
        };
        // Rewrite blobs in id order and collect the catalog updates.
        let mut moves: Vec<(ImageId, crate::blobstore::BlobRef)> = Vec::new();
        for (id, entry) in inner.catalog.iter() {
            if let CatalogEntry::Binary { blob, .. } = entry {
                let bytes = inner.blobs.get(*blob)?;
                moves.push((id, fresh.put(&bytes)?));
            }
        }
        for (id, new_ref) in moves {
            // Replace the entry with the relocated blob reference.
            if let Some(CatalogEntry::Binary {
                width,
                height,
                histogram,
                ..
            }) = inner.catalog.remove(id)
            {
                inner.catalog.insert(
                    id,
                    CatalogEntry::Binary {
                        blob: new_ref,
                        width,
                        height,
                        histogram,
                    },
                );
            }
        }
        let after = fresh.file_size();
        if let (Some(d), Some((_, gen))) = (&self.durable, target) {
            fresh.sync()?;
            inner.blobs = fresh;
            let payload = inner.catalog.encode(inner.blobs.free_list());
            let covered = d.wal.lock().last_seqno();
            d.blob_gen.store(gen, Ordering::Relaxed);
            drop(inner);
            d.commit_snapshot(covered, gen, &payload)?;
        } else {
            inner.blobs = fresh;
        }
        Ok(before.saturating_sub(after))
    }

    /// Consistency check (fsck): verifies that
    ///
    /// * every binary entry's blob decodes to a raster of the cataloged
    ///   dimensions and its stored histogram matches a re-extraction,
    /// * the static analyzer ([`StorageEngine::lint`]) finds no Error-level
    ///   diagnostic: every edit sequence is well-formed and boundable (its
    ///   references need no check: the catalog refuses a bad one on every
    ///   path that stores a sequence, see [`Catalog::check_refs`]),
    /// * no blob overlaps another blob or a free-list hole.
    ///
    /// Returns the list of problems found (empty = healthy).
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut extents: Vec<(u64, u64, ImageId)> = Vec::new();
        // Collect everything to check under the read lock, then do the
        // expensive decode/extract work without holding it.
        struct BinaryCheck {
            id: ImageId,
            bytes: Result<Vec<u8>>,
            width: u32,
            height: u32,
            histogram: Arc<ColorHistogram>,
        }
        let mut binaries = Vec::new();
        {
            let inner = self.inner.read();
            for (id, entry) in inner.catalog.iter() {
                match entry {
                    CatalogEntry::Binary {
                        blob,
                        width,
                        height,
                        histogram,
                    } => {
                        extents.push((blob.offset, blob.len, id));
                        binaries.push(BinaryCheck {
                            id,
                            bytes: inner.blobs.get(*blob),
                            width: *width,
                            height: *height,
                            histogram: Arc::clone(histogram),
                        });
                    }
                    CatalogEntry::Edited { .. } => {}
                }
            }
            // Blob overlap checks (blobs vs blobs and blobs vs free holes).
            extents.sort_unstable();
            for w in extents.windows(2) {
                if w[0].1 > 0 && w[0].0 + w[0].1 > w[1].0 {
                    problems.push(format!("blobs of {} and {} overlap", w[0].2, w[1].2));
                }
            }
            for &(h_off, h_len) in inner.blobs.free_list() {
                for &(b_off, b_len, id) in &extents {
                    if b_len > 0 && b_off < h_off + h_len && h_off < b_off + b_len {
                        problems.push(format!("free hole ({h_off},{h_len}) overlaps blob of {id}"));
                    }
                }
            }
        }
        for check in binaries {
            match check.bytes.and_then(|b| Ok(ppm::decode(&b)?)) {
                Err(e) => problems.push(format!("{}: blob unreadable: {e}", check.id)),
                Ok(raster) => {
                    if (raster.width(), raster.height()) != (check.width, check.height) {
                        problems.push(format!(
                            "{}: cataloged {}x{} but blob decodes to {}x{}",
                            check.id,
                            check.width,
                            check.height,
                            raster.width(),
                            raster.height()
                        ));
                    }
                    let fresh = ColorHistogram::extract(&raster, self.quantizer.as_ref());
                    if fresh.counts() != check.histogram.counts() {
                        problems.push(format!("{}: stored histogram is stale", check.id));
                    }
                }
            }
        }
        // Malformed or unboundable sequences are corruption; warnings (dead
        // ops, the Combine caveat) are not.
        problems.extend(
            self.lint()
                .diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .map(ToString::to_string),
        );
        problems
    }

    /// Runs the static analyzer over every edited image stored here:
    /// well-formedness, dead ops and the bound-soundness audit, with this
    /// engine as resolver. The sequences are listed under one view, which
    /// is dropped before the analysis takes its own locks.
    pub fn lint(&self) -> AnalysisReport {
        let view = self.read_view();
        let sequences: Vec<(ImageId, Arc<EditSequence>)> = view
            .edited()
            .filter_map(|id| Some((id, view.sequence(id)?)))
            .collect();
        drop(view);
        let analyzer = Analyzer::with_resolver(self.quantizer.as_ref(), self.background, self);
        mmdb_analysis::analyze_catalog(sequences, &analyzer)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StorageStats {
        let inner = self.inner.read();
        let mut s = StorageStats::default();
        for (_, entry) in inner.catalog.iter() {
            match entry {
                CatalogEntry::Binary { blob, .. } => {
                    s.binary_count += 1;
                    s.binary_bytes += blob.len;
                }
                CatalogEntry::Edited { sequence, .. } => {
                    s.edited_count += 1;
                    s.edited_bytes += mmdb_editops::codec::encode(sequence).len() as u64;
                }
            }
        }
        drop(inner);
        let (hits, misses) = self.cache.lock().stats();
        s.cache_hits = hits;
        s.cache_misses = misses;
        s
    }
}

impl Drop for StorageEngine {
    /// Best-effort group commit on shutdown: under `Interval`/`Never`
    /// policies a clean process exit should not lose acknowledged records.
    fn drop(&mut self) {
        if let Some(d) = &self.durable {
            let _ = d.wal.lock().sync();
        }
    }
}

/// Lets the instantiation engine pull base/target rasters out of this
/// database (no lock is held at this point — `raster` releases the catalog
/// lock before instantiation).
impl ImageResolver for StorageEngine {
    fn resolve(&self, id: ImageId) -> mmdb_editops::Result<RasterImage> {
        match self.raster(id) {
            Ok(img) => Ok((*img).clone()),
            Err(StorageError::NotFound(_)) => Err(EditError::UnknownImage(id)),
            Err(other) => Err(EditError::InvalidOperation(other.to_string())),
        }
    }
}

/// Lets the RBM/BWM query paths fetch exact histograms and dimensions of
/// referenced *binary* images without touching pixel data, one short lock
/// round each (a scan holds a [`ReadView`] instead).
impl InfoResolver for StorageEngine {
    fn info(&self, id: ImageId) -> Option<ImageInfo> {
        self.read_view().info(id)
    }
}

/// Lets the bound index and Figure 1 builders fetch sequences and programs
/// by id, one short lock round each (a scan holds a [`ReadView`] instead).
impl SequenceStore for StorageEngine {
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        self.edit_sequence(id)
    }

    fn program(
        &self,
        id: ImageId,
        engine: &RuleEngine<'_>,
        _resolver: &dyn InfoResolver,
    ) -> mmdb_rules::Result<Cow<'_, BoundProgram>> {
        debug_assert_eq!(engine.background(), self.background());
        debug_assert_eq!(engine.quantizer().bin_count(), self.quantizer().bin_count());
        self.bound_program(id).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_imaging::{draw, Rect};

    fn engine() -> StorageEngine {
        StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()))
    }

    fn two_tone(w: u32, h: u32, top: Rgb, bottom: Rgb) -> RasterImage {
        let mut img = RasterImage::filled(w, h, bottom).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, w as i64, h as i64 / 2), top);
        img
    }

    #[test]
    fn insert_and_fetch_binary() {
        let db = engine();
        let img = two_tone(16, 16, Rgb::RED, Rgb::WHITE);
        let id = db.insert_binary(&img).unwrap();
        assert_eq!(db.kind(id).unwrap(), StoredKind::Binary);
        let back = db.raster(id).unwrap();
        assert_eq!(*back, img);
        // Histogram is exact.
        let q = RgbQuantizer::default_64();
        let h = db.histogram(id).unwrap();
        assert_eq!(h.count(q.bin_of(Rgb::RED)), 128);
        assert_eq!(h.total(), 256);
    }

    #[test]
    fn insert_edited_and_instantiate() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let seq = EditSequence::builder(base)
            .modify(Rgb::RED, Rgb::BLUE)
            .build();
        let id = db.insert_edited(seq).unwrap();
        assert_eq!(db.kind(id).unwrap(), StoredKind::Edited);
        let img = db.raster(id).unwrap();
        assert_eq!(img.count_color(Rgb::BLUE), 32);
        assert_eq!(img.count_color(Rgb::RED), 0);
        // Histogram of the edited image instantiates correctly.
        let q = RgbQuantizer::default_64();
        assert_eq!(db.histogram(id).unwrap().count(q.bin_of(Rgb::BLUE)), 32);
        // Provenance.
        assert_eq!(db.base_of(id), Some(base));
        assert_eq!(db.children_of(base), vec![id]);
    }

    #[test]
    fn edited_with_merge_target_resolves() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
            .unwrap();
        let target = db
            .insert_binary(&RasterImage::filled(10, 10, Rgb::WHITE).unwrap())
            .unwrap();
        let seq = EditSequence::builder(base)
            .define(Rect::new(0, 0, 3, 3))
            .merge_into(target, 2, 2)
            .build();
        let id = db.insert_edited(seq).unwrap();
        let img = db.raster(id).unwrap();
        assert_eq!(img.width(), 10);
        assert_eq!(img.count_color(Rgb::GREEN), 9);
    }

    #[test]
    fn invalid_references_rejected() {
        let db = engine();
        let missing = EditSequence::builder(ImageId::new(99)).blur().build();
        assert!(matches!(
            db.insert_edited(missing),
            Err(StorageError::InvalidReference { .. })
        ));
        // Edited image as base: also rejected.
        let base = db
            .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let e1 = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        assert!(matches!(
            db.insert_edited(EditSequence::builder(e1).blur().build()),
            Err(StorageError::InvalidReference { .. })
        ));
        // Missing merge target.
        let seq = EditSequence::builder(base)
            .merge_into(ImageId::new(1234), 0, 0)
            .build();
        assert!(matches!(
            db.insert_edited(seq),
            Err(StorageError::InvalidReference { .. })
        ));
    }

    #[test]
    fn structurally_invalid_sequences_rejected() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        // Crop of a region that clips to empty: cannot instantiate or bound.
        let bad = EditSequence::builder(base)
            .define(mmdb_imaging::Rect::new(100, 100, 120, 120))
            .crop_to_region()
            .build();
        assert!(matches!(
            db.insert_edited(bad),
            Err(StorageError::InvalidSequence(_))
        ));
        // A valid crop is fine.
        let good = EditSequence::builder(base)
            .define(mmdb_imaging::Rect::new(1, 1, 5, 5))
            .crop_to_region()
            .build();
        assert!(db.insert_edited(good).is_ok());
        // Nothing half-inserted: only the good sequence is cataloged.
        assert_eq!(db.edited_ids().len(), 1);
    }

    #[test]
    fn delete_rules() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let child = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        assert!(matches!(
            db.delete(base),
            Err(StorageError::StillReferenced { dependents: 1, .. })
        ));
        db.delete(child).unwrap();
        db.delete(base).unwrap();
        assert!(!db.contains(base));
        assert!(matches!(db.delete(base), Err(StorageError::NotFound(_))));

        // A merge target is protected like a base, and a refused delete
        // changes nothing.
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let target = db
            .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
            .unwrap();
        let paste = |onto: ImageId, into: ImageId| {
            let seq = EditSequence::builder(onto)
                .define(Rect::new(0, 0, 3, 3))
                .merge_into(into, 1, 1)
                .build();
            db.insert_edited(seq).unwrap()
        };
        let refused = |id: ImageId, dependents: usize| {
            let (epoch, ids) = (db.current_epoch(), db.ids());
            let refusal = StorageError::StillReferenced { id, dependents };
            assert_eq!(db.delete(id).unwrap_err().to_string(), refusal.to_string());
            assert_eq!((db.current_epoch(), db.ids()), (epoch, ids));
        };
        let pasted = paste(base, target);
        refused(target, 1);
        refused(base, 1);
        // An image whose merge target is also its base names it once.
        let looped = paste(target, target);
        refused(target, 2);
        db.delete(pasted).unwrap();
        refused(target, 1);
        db.delete(base).unwrap();
        db.delete(looped).unwrap();
        db.delete(target).unwrap();
        assert!(db.ids().is_empty());
    }

    #[test]
    fn raster_cache_hits() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(32, 32, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let _ = db.raster(base).unwrap();
        let _ = db.raster(base).unwrap();
        let s = db.stats();
        assert!(s.cache_hits >= 1, "stats: {s:?}");
    }

    #[test]
    fn stats_space_saving() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(64, 64, Rgb::RED, Rgb::WHITE))
            .unwrap();
        for _ in 0..5 {
            db.insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 10, 10))
                    .modify(Rgb::RED, Rgb::GREEN)
                    .build(),
            )
            .unwrap();
        }
        let s = db.stats();
        assert_eq!(s.binary_count, 1);
        assert_eq!(s.edited_count, 5);
        let factor = s.space_saving_factor().unwrap();
        assert!(factor > 50.0, "space saving factor {factor}");
    }

    /// A background snapshot and a `flush` may run at once: both commit,
    /// and the directory reopens.
    #[test]
    fn concurrent_snapshots_all_commit() {
        let dir = std::env::temp_dir().join(format!("mmdb_engine_snaps_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        db.insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..100 {
                        db.snapshot_now().unwrap();
                    }
                });
            }
        });
        drop(db);
        assert_eq!(StorageEngine::open(&dir).unwrap().stats().binary_count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mmdb_engine_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (base, edited, img) = {
            let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
            let img = two_tone(12, 12, Rgb::BLUE, Rgb::WHITE);
            let base = db.insert_binary(&img).unwrap();
            let edited = db
                .insert_edited(
                    EditSequence::builder(base)
                        .modify(Rgb::BLUE, Rgb::RED)
                        .build(),
                )
                .unwrap();
            db.flush().unwrap();
            (base, edited, img)
        };
        let db = StorageEngine::open(&dir).unwrap();
        assert_eq!(*db.raster(base).unwrap(), img);
        let e = db.raster(edited).unwrap();
        assert_eq!(e.count_color(Rgb::RED), 72);
        assert_eq!(db.children_of(base), vec![edited]);
        assert_eq!(db.quantizer().describe(), "rgb-uniform/4");
        // Creating over an existing database is refused.
        assert!(StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_replays_unflushed_mutations() {
        let dir = std::env::temp_dir().join(format!("mmdb_replay_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let img = two_tone(10, 10, Rgb::GREEN, Rgb::BLACK);
        let (base, edited, doomed) = {
            let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
            let base = db.insert_binary(&img).unwrap();
            let edited = db
                .insert_edited(
                    EditSequence::builder(base)
                        .modify(Rgb::GREEN, Rgb::RED)
                        .build(),
                )
                .unwrap();
            let doomed = db
                .insert_binary(&two_tone(6, 6, Rgb::BLUE, Rgb::WHITE))
                .unwrap();
            db.delete(doomed).unwrap();
            // No flush: everything after the initial empty snapshot lives
            // only in the WAL.
            (base, edited, doomed)
        };
        let db = StorageEngine::open(&dir).unwrap();
        let info = db.recovery_info().unwrap();
        assert_eq!(info.replayed_records, 4, "{info:?}");
        assert_eq!(info.torn_bytes, 0);
        assert_eq!(*db.raster(base).unwrap(), img);
        assert_eq!(db.children_of(base), vec![edited]);
        assert!(!db.contains(doomed));
        // Epoch resumes at the WAL position: mutations keep logging.
        assert_eq!(db.current_epoch(), 4);
        let next = db.insert_binary(&img).unwrap();
        assert!(
            next.raw() > doomed.raw(),
            "id allocator advanced past replayed ids"
        );
        assert!(db.verify().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("mmdb_torn_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let img = two_tone(8, 8, Rgb::RED, Rgb::WHITE);
        {
            let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
            db.insert_binary(&img).unwrap();
            db.insert_binary(&two_tone(8, 8, Rgb::BLUE, Rgb::WHITE))
                .unwrap();
        }
        // Tear the final record mid-frame, as a crash mid-append would.
        let (seg, _) = mmdb_durable::wal::list_segments(&dir.join("wal"))
            .unwrap()
            .pop()
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();

        let db = StorageEngine::open(&dir).unwrap();
        let info = db.recovery_info().unwrap();
        assert!(info.torn_bytes > 0, "{info:?}");
        assert_eq!(info.replayed_records, 1);
        assert_eq!(db.ids().len(), 1);
        assert_eq!(*db.raster(ImageId::new(1)).unwrap(), img);
        assert!(db.verify().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_without_meta_is_not_a_database() {
        let dir = std::env::temp_dir().join(format!("mmdb_nometa_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Stray files do not make a database; only the meta header does.
        std::fs::write(dir.join("blobs.mmdb"), b"").unwrap();
        match StorageEngine::open(&dir) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("no database at"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert!(!dir.join("meta").exists(), "a refused open writes nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_is_crash_safe_via_generations() {
        let dir = std::env::temp_dir().join(format!("mmdb_gen_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let mut keep = Vec::new();
        for i in 0..6u8 {
            let img = two_tone(12, 12, Rgb::new(i * 30, 0, 0), Rgb::WHITE);
            let id = db.insert_binary(&img).unwrap();
            if i % 2 == 0 {
                keep.push((id, img));
            } else {
                db.delete(id).unwrap();
            }
        }
        db.compact().unwrap();
        assert!(
            dir.join("blobs-1.mmdb").exists(),
            "compaction writes the next generation"
        );
        // Both generations coexist while a retained snapshot still
        // references generation 0 (the fallback snapshot must stay
        // loadable)...
        assert!(dir.join("blobs.mmdb").exists(), "old generation retained");
        // ...and once every retained snapshot has moved past it, the old
        // generation is garbage-collected.
        db.insert_binary(&two_tone(4, 4, Rgb::GREEN, Rgb::BLACK))
            .unwrap();
        db.flush().unwrap();
        assert!(!dir.join("blobs.mmdb").exists(), "old generation GC'd");
        drop(db);
        let db = StorageEngine::open(&dir).unwrap();
        for (id, img) in &keep {
            assert_eq!(&*db.raster(*id).unwrap(), img);
        }
        assert!(db.verify().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_resolver_binary_only() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let edited = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        assert!(db.info(base).is_some());
        assert!(db.info(edited).is_none());
        assert!(db.info(ImageId::new(999)).is_none());
        let info = db.info(base).unwrap();
        assert_eq!(info.width, 4);
        assert_eq!(info.histogram.total(), 16);
    }

    #[test]
    fn compact_reclaims_holes_and_preserves_data() {
        let dir = std::env::temp_dir().join(format!("mmdb_compact_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let mut keep = Vec::new();
        let mut drop_ids = Vec::new();
        for i in 0..10u8 {
            let img = two_tone(16, 16, Rgb::new(i * 20, 0, 0), Rgb::WHITE);
            let id = db.insert_binary(&img).unwrap();
            if i % 2 == 0 {
                keep.push((id, img));
            } else {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            db.delete(id).unwrap();
        }
        let before = db.stats().binary_bytes;
        let reclaimed = db.compact().unwrap();
        assert!(reclaimed > 0, "interleaved deletes must leave holes");
        // All kept rasters are intact, bit-exact.
        for (id, img) in &keep {
            assert_eq!(&*db.raster(*id).unwrap(), img);
        }
        assert_eq!(db.stats().binary_bytes, before);
        assert!(db.verify().is_empty(), "compacted db passes fsck");
        // Survives reopen.
        db.flush().unwrap();
        drop(db);
        let db = StorageEngine::open(&dir).unwrap();
        for (id, img) in &keep {
            assert_eq!(&*db.raster(*id).unwrap(), img);
        }
        assert!(db.verify().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_in_memory_database() {
        let db = engine();
        let a = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let b = db
            .insert_binary(&two_tone(8, 8, Rgb::GREEN, Rgb::WHITE))
            .unwrap();
        let child = db
            .insert_edited(EditSequence::builder(b).blur().build())
            .unwrap();
        db.delete(a).unwrap();
        let reclaimed = db.compact().unwrap();
        assert!(reclaimed > 0);
        // Provenance links survive the catalog rewrite.
        assert_eq!(db.children_of(b), vec![child]);
        assert!(db.raster(child).is_ok());
        assert!(db.verify().is_empty());
    }

    #[test]
    fn verify_healthy_database() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let target = db
            .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
            .unwrap();
        db.insert_edited(
            EditSequence::builder(base)
                .define(mmdb_imaging::Rect::new(0, 0, 4, 4))
                .merge_into(target, 1, 1)
                .build(),
        )
        .unwrap();
        assert_eq!(db.verify(), Vec::<String>::new());
    }

    #[test]
    fn verify_detects_corrupted_blob() {
        let dir = std::env::temp_dir().join(format!("mmdb_fsck_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
            db.insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
                .unwrap();
            db.flush().unwrap();
        }
        // Flip pixel bytes in the blob file (the PPM body), corrupting the
        // stored raster relative to the cataloged histogram.
        let blob_path = dir.join("blobs.mmdb");
        let mut bytes = std::fs::read(&blob_path).unwrap();
        let n = bytes.len();
        for b in &mut bytes[n - 24..] {
            *b ^= 0xFF;
        }
        std::fs::write(&blob_path, &bytes).unwrap();
        let db = StorageEngine::open(&dir).unwrap();
        let problems = db.verify();
        assert!(
            problems.iter().any(|p| p.contains("stale")),
            "expected a stale-histogram finding, got {problems:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_validation_rejects_errors_and_records_lints() {
        mmdb_analysis::register_metrics();
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        // Error-level: non-affine Mutate (projective bottom row).
        let mut m = mmdb_editops::Matrix3::IDENTITY;
        m.m[2][0] = 0.5;
        let bad = EditSequence::builder(base).mutate(m).build();
        let e007 =
            mmdb_telemetry::global().counter(r#"mmdb_analysis_diagnostics_total{code="E007"}"#);
        let before = e007.get();
        let err = db.insert_edited(bad).unwrap_err();
        assert!(e007.get() > before, "the refusal's code is counted");
        match err {
            StorageError::InvalidSequence(msg) => {
                assert!(msg.contains("E007"), "expected the lint code, got: {msg}");
            }
            other => panic!("expected InvalidSequence, got {other:?}"),
        }
        // Warn-level findings (a dead Define) do not block the insert.
        let warned = EditSequence::builder(base)
            .define(Rect::new(0, 0, 2, 2))
            .define(Rect::new(0, 0, 4, 4))
            .blur()
            .build();
        assert!(db.insert_edited(warned).is_ok());
        let text = mmdb_telemetry::global().render_prometheus();
        assert!(
            text.contains(r#"mmdb_analysis_diagnostics_total{code="E007"}"#),
            "{text}"
        );
    }

    /// Ingest compiles a sequence only to validate it: the cell stays empty
    /// until the first use compiles the program in that caller's order.
    #[test]
    fn ingest_keeps_no_program() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let target = db
            .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
            .unwrap();
        let clustered = EditSequence::builder(base).blur().build();
        let loose = EditSequence::builder(base)
            .define(Rect::new(0, 0, 3, 3))
            .merge_into(target, 2, 2)
            .build();
        for sequence in [clustered, loose] {
            let id = db.insert_edited(sequence).unwrap();
            let filled = || {
                let view = db.read_view();
                view.structure()
                    .program_cell(id, base)
                    .unwrap()
                    .get()
                    .is_some()
            };
            assert!(!filled(), "ingest keeps no program");
            db.bound_program(id).unwrap();
            assert!(filled(), "the first use keeps it");
        }
    }

    #[test]
    fn verify_reports_analyzer_errors_with_lint_codes() {
        let db = engine();
        let base = db
            .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        db.insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        // Ingest refuses a projective Mutate (E007); to simulate corruption
        // it is spliced into the catalog directly.
        {
            let mut m = mmdb_editops::Matrix3::IDENTITY;
            m.m[2][0] = 0.5;
            let mut inner = db.inner.write();
            let id = inner.catalog.allocate_id();
            inner.catalog.insert(
                id,
                CatalogEntry::edited(Arc::new(EditSequence::builder(base).mutate(m).build())),
            );
        }
        let problems = db.verify();
        assert!(
            problems.iter().any(|p| p.contains("E007")),
            "expected a non-affine-mutate finding, got {problems:?}"
        );
    }

    #[test]
    fn ids_listing() {
        let db = engine();
        let b1 = db
            .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
            .unwrap();
        let b2 = db
            .insert_binary(&two_tone(4, 4, Rgb::GREEN, Rgb::WHITE))
            .unwrap();
        let e1 = db
            .insert_edited(EditSequence::builder(b1).blur().build())
            .unwrap();
        assert_eq!(db.ids(), vec![b1, b2, e1]);
        assert_eq!(db.binary_ids(), vec![b1, b2]);
        assert_eq!(db.edited_ids(), vec![e1]);
    }
}
