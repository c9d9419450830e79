//! A file-backed engine on disk: create, open and WAL replay, snapshots,
//! background maintenance and blob compaction, around the record codec in
//! `durability.rs`. A replayed record is refused where ingest would refuse
//! it, then applied by the live write path's `Inner::admit` / `remove`.

use crate::blobstore::BlobStore;
use crate::catalog::{Catalog, CatalogEntry};
use crate::durability::{
    blob_file_name, decode_record, map_durable, parse_blob_file_name, DurabilityOptions,
    OwnedWalRecord, RecoveryInfo, WalRecord,
};
use crate::engine::{Inner, StorageEngine};
use crate::error::StorageError;
use crate::Result;
use mmdb_conc::sync::atomic::{AtomicU64, Ordering::Relaxed};
use mmdb_conc::sync::Mutex;
use mmdb_durable::meta::{read_meta, write_meta, Meta};
use mmdb_durable::{FsyncPolicy, SnapshotStore, Wal};
use mmdb_histogram::{quantizer::from_description, ColorHistogram, Quantizer};
use mmdb_imaging::ppm;
use mmdb_telemetry::{histogram, EventKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Durable-layer state of a file-backed engine: the WAL, the snapshot
/// store, and the bookkeeping the background maintenance path reads.
///
/// Lock order (deadlock freedom): `inner` before `wal` — the mutation path
/// holds the exclusive catalog lock while appending, and the snapshot path
/// reads the log position while holding the shared catalog lock. Nothing
/// acquires `inner` while holding `wal`.
pub(crate) struct DurableState {
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
    /// What recovery found; `None` for a freshly created database.
    recovery: Option<RecoveryInfo>,
}

impl DurableState {
    fn new(
        dir: &Path,
        wal: Wal,
        snaps: SnapshotStore,
        blob_gen: u64,
        opts: DurabilityOptions,
        recovery: Option<RecoveryInfo>,
    ) -> Self {
        DurableState {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            snaps,
            blob_gen: AtomicU64::new(blob_gen),
            appended_since_snapshot: AtomicU64::new(0),
            last_interval_sync: Mutex::new(Instant::now()),
            committing: Mutex::new(()),
            opts,
            recovery,
        }
    }

    /// The sequence number of the last record in the log.
    pub(crate) fn last_seqno(&self) -> u64 {
        self.wal.lock().last_seqno()
    }

    /// Appends `record`, the mutation that moves the engine past `epoch`.
    pub(crate) fn append(&self, record: &WalRecord<'_>, epoch: u64) -> Result<()> {
        let mut wal = self.wal.lock();
        let seqno = wal.append(&record.encode()).map_err(map_durable)?;
        debug_assert_eq!(seqno, epoch + 1, "WAL seqno and epoch advance in lockstep");
        // Relaxed: a background-cadence counter, read approximately.
        self.appended_since_snapshot.fetch_add(1, Relaxed);
        Ok(())
    }

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
        let commit = || -> mmdb_durable::Result<()> {
            self.snaps.write(covered, gen, payload)?;
            self.appended_since_snapshot.store(0, Relaxed);
            let oldest = self.snaps.oldest_covered()?.unwrap_or(covered);
            let mut wal = self.wal.lock();
            wal.sync()?;
            if wal.last_seqno() == covered {
                wal.rotate()?;
            }
            wal.gc(oldest)?;
            Ok(())
        };
        commit().map_err(map_durable)?;
        gc_blob_generations(&self.dir, &self.snaps, self.blob_gen.load(Relaxed))
    }
}

/// Applies one replayed record to the recovering shard through the write
/// path's own [`Inner::admit`] and [`Inner::remove`]: blob bytes come from
/// the record itself and histograms are re-extracted (extraction is
/// deterministic). A record the engine would have refused — an insert of a
/// stored id or naming what is not a stored binary image, a delete of a
/// referenced image — is `Corrupt`, so a log that breaks the reference rule
/// fails `open` instead of every query.
fn apply_record(
    inner: &mut Inner,
    quantizer: &dyn Quantizer,
    seqno: u64,
    payload: &[u8],
) -> Result<()> {
    let refused = |e: StorageError| StorageError::Corrupt(format!("WAL record {seqno}: {e}"));
    let (id, entry) = match decode_record(payload)? {
        OwnedWalRecord::InsertBinary { id, .. } | OwnedWalRecord::InsertEdited { id, .. }
            if inner.catalog.get(id).is_some() =>
        {
            return Err(StorageError::Corrupt(format!(
                "WAL record {seqno} re-inserts existing id {id}"
            )));
        }
        OwnedWalRecord::InsertBinary {
            id,
            width,
            height,
            ppm,
        } => {
            let raster = ppm::decode(&ppm)?;
            if (raster.width(), raster.height()) != (width, height) {
                return Err(StorageError::Corrupt(format!(
                    "WAL record {seqno}: {id} logged as {width}x{height} but its \
                     raster decodes to {}x{}",
                    raster.width(),
                    raster.height()
                )));
            }
            let histogram = Arc::new(ColorHistogram::extract(&raster, quantizer));
            let blob = inner.blobs.put(&ppm)?;
            let entry = CatalogEntry::Binary {
                blob,
                width,
                height,
                histogram,
            };
            (id, entry)
        }
        OwnedWalRecord::InsertEdited { id, sequence } => {
            inner.catalog.check_refs(&sequence).map_err(refused)?;
            (id, CatalogEntry::edited(Arc::new(sequence)))
        }
        OwnedWalRecord::Delete { id } => {
            inner.catalog.check_delete(id).map_err(refused)?;
            inner.remove(id);
            return Ok(());
        }
    };
    inner.admit(id, entry);
    Ok(())
}

/// Removes blob generation files no retained snapshot references — debris
/// of crashed compactions and generations all retained snapshots have moved
/// past. `current_gen` (the generation the open engine writes to) is always
/// kept.
fn gc_blob_generations(dir: &Path, snaps: &SnapshotStore, current_gen: u64) -> Result<()> {
    let mut keep = vec![current_gen];
    for (path, _) in snaps.list().map_err(map_durable)? {
        if let Ok(info) = mmdb_durable::snapshot::read_info(&path) {
            keep.push(info.blob_gen);
        }
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let gen = entry.file_name().to_str().and_then(parse_blob_file_name);
        if gen.is_some_and(|gen| !keep.contains(&gen)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
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
        let (wal, _) = Wal::open(&dir.join("wal"), opts.wal(), 0).map_err(map_durable)?;
        let inner = Inner::new(Catalog::new(quantizer.describe()), blobs);
        let durable = DurableState::new(dir, wal, snaps, 0, opts, None);
        let engine = Self::assemble(inner, quantizer, Some(durable));
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
    /// a database. Figure 1 is built once, from the snapshot's catalog;
    /// replay keeps it up to date as live writes do.
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
        let (catalog, free_list) = Catalog::decode(&snap.payload)?;
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
        let mut inner = Inner::new(catalog, blobs);

        let (wal_dir, covered) = (dir.join("wal"), snap.covered_seqno);
        let (mut wal, wal_stats) = Wal::open(&wal_dir, opts.wal(), covered).map_err(map_durable)?;
        if wal.last_seqno() < covered {
            // The log's surviving tail predates the snapshot (lost under a
            // lax fsync policy): nothing in it is needed, and reusing its
            // sequence numbers would alias covered records. Restart the log
            // at the snapshot's cover point.
            drop(wal);
            std::fs::remove_dir_all(&wal_dir)?;
            (wal, _) = Wal::open(&wal_dir, opts.wal(), covered).map_err(map_durable)?;
        }
        let replayed = wal
            .replay(covered, |seqno, payload| {
                apply_record(&mut inner, quantizer.as_ref(), seqno, payload)
                    .map_err(|e| mmdb_durable::DurableError::Corrupt(e.to_string()))
            })
            .map_err(map_durable)?;
        let (last_seqno, torn_bytes) = (wal.last_seqno(), wal_stats.torn_bytes);
        let recovery = RecoveryInfo {
            snapshot_seqno: covered,
            replayed_records: replayed,
            torn_bytes,
            duration: started.elapsed(),
        };
        histogram!("mmdb_recovery_seconds").observe(recovery.duration);
        mmdb_telemetry::recorder().record(
            EventKind::Recovery,
            format!(
                "snapshot_seqno={covered} replayed={replayed} torn_bytes={torn_bytes} \
                 last_seqno={last_seqno}"
            ),
            &[("replayed_records", replayed), ("torn_bytes", torn_bytes)],
        );
        let durable = DurableState::new(dir, wal, snaps, snap.blob_gen, opts, Some(recovery));
        Ok(Self::assemble(inner, quantizer, Some(durable)))
    }

    /// What recovery found and did when this engine opened its data dir.
    /// `None` for in-memory and freshly created databases.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.durable.as_ref().and_then(|d| d.recovery)
    }

    /// The data directory of a file-backed engine.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
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
        let covered = d.last_seqno();
        // Relaxed on `blob_gen`: only `compact` stores it, and `compact`
        // holds the exclusive catalog lock while doing so — read here, under
        // the shared one, it is the generation `payload` refers to.
        let gen = d.blob_gen.load(Relaxed);
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
        if d.appended_since_snapshot.load(Relaxed) >= d.opts.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Compacts the blob store: rewrites every live blob contiguously,
    /// eliminating the holes left by deletions, and relocates the catalog's
    /// blob references in place. Returns the number of bytes reclaimed.
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
            let gen = d.blob_gen.load(Relaxed) + 1;
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
        // Copy every blob in id order, durably, before relocating a single
        // reference: a failure leaves the catalog on the old store.
        let mut moved = Vec::new();
        for (_, entry) in inner.catalog.iter() {
            if let CatalogEntry::Binary { blob, .. } = entry {
                moved.push(fresh.put(&inner.blobs.get(*blob)?)?);
            }
        }
        fresh.sync()?;
        for (blob, to) in inner.catalog.blobs_mut().zip(moved) {
            *blob = to;
        }
        let after = fresh.file_size();
        inner.blobs = fresh;
        if let (Some(d), Some((_, gen))) = (&self.durable, target) {
            let payload = inner.catalog.encode(inner.blobs.free_list());
            let covered = d.last_seqno();
            d.blob_gen.store(gen, Relaxed);
            drop(inner);
            d.commit_snapshot(covered, gen, &payload)?;
        }
        Ok(before.saturating_sub(after))
    }
}
