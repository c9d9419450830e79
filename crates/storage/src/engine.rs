//! The storage engine: a shard's state under its one lock, the read view a
//! scan holds, and the read/write API. On-disk life (open, replay,
//! snapshots, compaction) is `recovery.rs`; `verify`, `lint` and `stats`
//! are `inspect.rs`.

use crate::blobstore::BlobStore;
use crate::catalog::{Catalog, CatalogEntry, StoredKind};
use crate::durability::WalRecord;
use crate::epoch::MutationEpoch;
use crate::error::StorageError;
use crate::lru::LruCache;
use crate::recovery::DurableState;
use crate::Result;
use mmdb_analysis::Diagnostic;
use mmdb_bwm::{BwmStructure, SequenceStore};
use mmdb_conc::sync::{Mutex, RwLock, RwLockReadGuard};
use mmdb_editops::{
    EditError, EditSequence, ExecOptions, ImageId, ImageResolver, InstantiationEngine,
};
use mmdb_histogram::{ColorHistogram, Quantizer};
use mmdb_imaging::ppm::{self, PnmFormat};
use mmdb_imaging::{RasterImage, Rgb};
use mmdb_rules::{BoundProgram, ImageInfo, InfoResolver, RuleEngine, RuleError, RuleProfile};
use mmdb_telemetry::{counter, histogram, EventKind};
use std::sync::Arc;
use std::time::Instant;

pub use crate::inspect::StorageStats;

/// Default raster-cache capacity (entries).
const CACHE_ENTRIES: usize = 256;
/// Default raster-cache byte budget (256 MiB of decoded pixels).
const CACHE_BYTES: usize = 256 << 20;

/// What is true of a shard, under the engine's one lock: the catalog, the
/// blob store of its binary images, and the paper's Figure 1 structure
/// over the catalog, which live writes and WAL replay alike change only
/// through [`Inner::admit`] and [`Inner::remove`]. Figure 1 carries what a
/// scan reads — every base's counts, one column per bin, and each cluster
/// the block its members' BOUNDS programs are compiled into on first use
/// (each Unclassified entry a cell of its own). Everything else derived
/// from a catalog is built lazily, outside, against the epoch.
pub(crate) struct Inner {
    pub(crate) catalog: Catalog,
    pub(crate) blobs: BlobStore,
    structure: BwmStructure,
}

impl Inner {
    /// A shard over `catalog` and `blobs`, with Figure 1 built as admitting
    /// its images one by one would have built it. No program is compiled.
    pub(crate) fn new(catalog: Catalog, blobs: BlobStore) -> Self {
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
        Inner {
            catalog,
            blobs,
            structure,
        }
    }

    /// Stores `entry` under the free `id` in the catalog, moving the
    /// allocator past it, and in Figure 1. A binary entry's blob is already
    /// stored (the write path puts it before the WAL append, where a failure
    /// is clean); the caller has checked [`Catalog::check_refs`].
    pub(crate) fn admit(&mut self, id: ImageId, entry: CatalogEntry) {
        self.catalog.note_allocated(id);
        match &entry {
            CatalogEntry::Binary { histogram, .. } => {
                self.structure.insert_binary(id, Arc::clone(histogram));
            }
            CatalogEntry::Edited { sequence } => {
                self.structure.insert_edited(id, sequence);
            }
        }
        self.catalog.insert(id, entry);
    }

    /// Removes `id` from the catalog, its blob from the blob store and its
    /// entry from Figure 1. The caller checked [`Catalog::check_delete`],
    /// so a binary image's cluster is empty.
    pub(crate) fn remove(&mut self, id: ImageId) {
        match self.catalog.remove(id) {
            Some(CatalogEntry::Binary { blob, .. }) => {
                self.blobs.delete(blob);
                self.structure.remove_binary(id);
            }
            Some(CatalogEntry::Edited { sequence }) => {
                self.structure.remove_edited(id, sequence.base);
            }
            None => {}
        }
    }
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

    /// A copy of the program kept in the image's Figure 1 entry — found
    /// from its base — compiled on first use by `engine`, which every
    /// caller builds from this database's quantizer and background, with
    /// the rest of its cluster's block, as a scan compiles it.
    fn program(
        &self,
        id: ImageId,
        engine: &RuleEngine<'_>,
        resolver: &dyn InfoResolver,
    ) -> mmdb_rules::Result<BoundProgram> {
        let base = self
            .0
            .catalog
            .base_of(id)
            .ok_or(RuleError::UnknownImage(id))?;
        let structure = &self.0.structure;
        let program = structure.program(id, base, self, engine, resolver)?;
        Ok(program.to_program())
    }
}

/// The MMDBMS storage engine.
///
/// Thread-safe: reads run under a shared lock, mutations under an exclusive
/// lock, and instantiation never holds the catalog lock while executing
/// operations (so concurrent queries can resolve bases/targets).
pub struct StorageEngine {
    pub(crate) inner: RwLock<Inner>,
    pub(crate) cache: Mutex<LruCache<ImageId, Arc<RasterImage>>>,
    pub(crate) quantizer: Box<dyn Quantizer>,
    pub(crate) background: Rgb,
    pub(crate) durable: Option<DurableState>,
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
    /// The one assembly of an engine, in memory or over a data directory.
    /// Every acknowledged mutation is one WAL record, so the epoch starts at
    /// the log's last sequence number ([`MutationEpoch::restore`]).
    pub(crate) fn assemble(
        inner: Inner,
        quantizer: Box<dyn Quantizer>,
        durable: Option<DurableState>,
    ) -> Self {
        let epoch = MutationEpoch::new();
        epoch.restore(durable.as_ref().map_or(0, DurableState::last_seqno));
        StorageEngine {
            inner: RwLock::new(inner),
            cache: Mutex::new(LruCache::new(CACHE_ENTRIES, CACHE_BYTES)),
            quantizer,
            background: Rgb::BLACK,
            durable,
            epoch,
        }
    }

    /// Creates an ephemeral in-memory database (tests, benchmarks).
    pub fn in_memory(quantizer: Box<dyn Quantizer>) -> Self {
        let inner = Inner::new(Catalog::new(quantizer.describe()), BlobStore::in_memory());
        Self::assemble(inner, quantizer, None)
    }

    /// Appends one mutation record to the WAL. Called under the exclusive
    /// catalog lock *before* the in-memory apply: the record is durable (per
    /// the fsync policy) by the time the mutation is acknowledged, and a
    /// crash between append and apply loses only an unacknowledged mutation.
    fn log_mutation(&self, record: &WalRecord<'_>) -> Result<()> {
        match &self.durable {
            Some(d) => d.append(record, self.epoch.current()),
            None => Ok(()),
        }
    }

    /// The current mutation epoch. Readers building derived structures must
    /// capture the epoch *before* reading catalog state: a racing mutation
    /// then leaves the derived stamp behind the true epoch (forcing a
    /// re-sync) rather than ahead of it (serving stale data).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.current()
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
        let (width, height) = (image.width(), image.height());
        let mut inner = self.inner.write();
        let blob = inner.blobs.put(&encoded)?;
        let id = inner.catalog.allocate_id();
        self.log_mutation(&WalRecord::InsertBinary {
            id,
            width,
            height,
            ppm: &encoded,
        })?;
        let entry = CatalogEntry::Binary {
            blob,
            width,
            height,
            histogram,
        };
        inner.admit(id, entry);
        self.epoch.bump();
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
        inner.admit(id, CatalogEntry::edited(Arc::new(sequence)));
        self.epoch.bump();
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

    /// Deletes `id`. A binary image that a stored edited image names — as
    /// its base or as a merge target — is refused with
    /// [`StorageError::StillReferenced`] ([`Catalog::check_delete`], O(1)).
    pub fn delete(&self, id: ImageId) -> Result<()> {
        let mut inner = self.inner.write();
        inner.catalog.check_delete(id)?;
        self.log_mutation(&WalRecord::Delete { id })?;
        inner.remove(id);
        self.epoch.bump();
        drop(inner);
        self.cache.lock().invalidate(&id);
        Ok(())
    }

    /// The storage kind of `id`.
    pub fn kind(&self, id: ImageId) -> Result<StoredKind> {
        self.inner
            .read()
            .catalog
            .get(id)
            .map(CatalogEntry::kind)
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
    /// and background), as a copy. Compiled by the first caller — this, the
    /// bound index, or an RBM/BWM scan walking the entry — and kept in `id`'s
    /// Figure 1 entry from then on, the one place a program lives: its
    /// cluster's block, compiled with every other member's, or its
    /// Unclassified entry (found from the sequence's base, then by binary
    /// search on `id`). `open` pays nothing, ingest keeps nothing (see
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
        view.program(id, &self.rule_engine(), &view)
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
}

impl Drop for StorageEngine {
    /// Best-effort group commit on shutdown: under `Interval`/`Never`
    /// policies a clean process exit should not lose acknowledged records.
    fn drop(&mut self) {
        let _ = self.wal_sync();
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
    ) -> mmdb_rules::Result<BoundProgram> {
        debug_assert_eq!(engine.background(), self.background());
        debug_assert_eq!(engine.quantizer().bin_count(), self.quantizer().bin_count());
        self.bound_program(id)
    }
}

#[cfg(test)]
mod tests;
