//! The partition. Everything this crate knows about sharding lives here:
//! what a shard is, how N storage engines are wired into disjoint id
//! spaces, the on-disk layout and its manifest, where a new binary image is
//! placed, which shard owns an id, and how per-shard answers are gathered
//! into one. The facade (`lib.rs`) holds one [`Shards`] and asks it; the
//! query server does not know shards exist.
//!
//! The routing rule itself — `(id - 1) mod N` — is defined once, next to
//! the strided allocator that creates it: [`mmdb_storage::id_class`].

use crate::Result;
use mmdb_boundidx::{BoundIndex, EpochSlot, SyncStats};
use mmdb_bwm::QueryCtx;
use mmdb_conc::sync::atomic::{AtomicU64, Ordering};
use mmdb_editops::ImageId;
use mmdb_histogram::{quantizer::from_description, ColorHistogram, Quantizer};
use mmdb_query::executor::{build_index, QueryError, QueryProcessor, Slice};
use mmdb_query::{sort_neighbours, QueryPlan};
use mmdb_rules::ColorRangeQuery;
use mmdb_storage::{id_class, DurabilityOptions, StorageEngine, StorageError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One shard of the database: a complete, self-contained storage engine
/// (own lock, own mutation epoch, own WAL) plus the structures derived
/// lazily from *its* slice of the catalog. A write touches `storage` and
/// nothing else: what is true of the shard — the catalog and the Figure 1
/// structure over it — sits under the engine's one lock, which an RBM or BWM
/// scan takes once ([`StorageEngine::read_view`]); everything derived sits
/// in an [`EpochSlot`] and catches up on read.
///
/// The slots' serving invariant is `value.stamp() == storage.current_epoch()`
/// *for this shard's engine*: a value whose stamp trails it is never
/// consulted — it is re-synced or rebuilt under the slot's write lock
/// first, stamped with the epoch captured before the catalog listing it is
/// built from. [`EpochSlot`] enforces the invariant structurally; the
/// protocol is model-checked in `crates/conc/tests/model_boundidx.rs`.
///
/// Shards own disjoint id spaces (shard `i` of `N` allocates ids
/// `≡ i + 1 (mod N)` via strided allocation), so scatter-gather merges
/// never see a duplicate and [`id_class`] routes any id to its owner.
pub(crate) struct Shard {
    pub(crate) storage: Arc<StorageEngine>,
    /// The Conservative-profile [`BoundIndex`] behind the Indexed plan.
    pub(crate) bound_index: EpochSlot<BoundIndex>,
}

impl Shard {
    fn new(storage: StorageEngine) -> Self {
        Shard {
            storage: Arc::new(storage),
            bound_index: EpochSlot::new(),
        }
    }

    /// This shard's slice of a range query, added to `ctx`.
    fn range(&self, query: &ColorRangeQuery, plan: QueryPlan, ctx: &mut QueryCtx) -> Result<()> {
        let qp = QueryProcessor::new(&self.storage);
        match plan {
            QueryPlan::Bwm => qp.execute(Slice::Bwm(None), query, ctx),
            QueryPlan::Rbm => qp.execute(Slice::Rbm, query, ctx),
            QueryPlan::Instantiate => qp.execute(Slice::Instantiate, query, ctx),
            QueryPlan::Indexed => self
                .with_bound_index(|idx, sync| qp.execute(Slice::Indexed(idx, sync), query, ctx))?,
        }
    }

    /// Runs `f` against a bound index that satisfies the serving invariant
    /// (`synced_epoch == current_epoch` of this shard's engine), building or
    /// incrementally re-syncing the slot first when needed.
    ///
    /// A build or sync reads one [`StorageEngine::read_view`]: the ids, the
    /// histograms and the programs all come from one catalog state, and
    /// the epoch read under the view is that state's (a bump needs the
    /// engine's write lock). Lock order is slot → view; the view is dropped
    /// before `f` runs, and nothing takes a slot while holding a view.
    fn with_bound_index<T>(&self, mut f: impl FnMut(&BoundIndex, SyncStats) -> T) -> Result<T> {
        let storage = &self.storage;
        let slot = &self.bound_index;
        let served = slot.serve_fresh(storage.current_epoch(), |idx| f(idx, SyncStats::default()));
        if let Some(out) = served {
            return Ok(out);
        }
        // Slow path: build or re-sync under the write lock, then serve under
        // it (this lock has no downgrade; the next query takes the read fast
        // path above). The ids are listed only by the arms that read them,
        // so a reader that lost the race to a writer who already synced
        // lists nothing.
        let mut guard = slot.write();
        let view = storage.read_view();
        let epoch = storage.current_epoch();
        let stats = match guard.as_mut() {
            Some(idx) if idx.synced_epoch() == epoch => SyncStats::default(),
            Some(idx) => {
                let binary: Vec<ImageId> = view.binaries().map(|(id, _)| id).collect();
                let edited: Vec<ImageId> = view.edited().collect();
                idx.sync(
                    epoch,
                    &binary,
                    &edited,
                    storage.quantizer(),
                    storage.background(),
                    &view,
                    &view,
                )?
            }
            None => {
                *guard = Some(build_index(storage, &view)?);
                SyncStats::default()
            }
        };
        drop(view);
        Ok(f(guard.as_ref().expect("slot populated above"), stats))
    }
}

/// Magic line of the shard-manifest file (`<dir>/shards`) marking a data
/// directory as the root of an N-shard layout. Directories without the
/// manifest are single-shard databases in the historical layout — both
/// directions stay compatible: a 1-shard create writes no manifest, and
/// open treats "no manifest" as "one shard rooted here".
const SHARD_MANIFEST_MAGIC: &str = "MMDBSHRD v1";

/// The engine directory of shard `index` inside a sharded database root
/// (`shard-00/`, `shard-01/`, …). Exposed for tools (`mmdbctl fsck`) that
/// descend the sharded layout without opening the database.
pub fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:02}"))
}

fn write_shard_manifest(root: &Path, count: usize) -> std::io::Result<()> {
    std::fs::write(
        root.join("shards"),
        format!("{SHARD_MANIFEST_MAGIC}\ncount={count}\n"),
    )
}

/// Reads `<root>/shards`: `Ok(None)` when absent (single-shard layout),
/// `Ok(Some(n))` for a valid manifest, `Err` on a malformed one.
pub fn read_shard_manifest(root: &Path) -> Result<Option<usize>> {
    let path = root.join("shards");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::from(e).into()),
    };
    let corrupt = || {
        QueryError::from(StorageError::Corrupt(format!(
            "malformed shard manifest at {}",
            path.display()
        )))
    };
    let mut lines = text.lines();
    if lines.next() != Some(SHARD_MANIFEST_MAGIC) {
        return Err(corrupt());
    }
    let count: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("count="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(corrupt)?;
    if count == 0 {
        return Err(corrupt());
    }
    Ok(Some(count))
}

/// Clones a quantizer through its self-description (the same mechanism
/// `open` uses to reconstruct it from a recovered catalog).
fn clone_quantizer(quantizer: &dyn Quantizer) -> Box<dyn Quantizer> {
    from_description(&quantizer.describe())
        .expect("quantizer description round-trips through from_description")
}

/// The shards of one database, in id-class order, plus the placement cursor.
/// Dereferences to the shard slice for whole-catalog loops.
pub(crate) struct Shards {
    shards: Vec<Shard>,
    /// Round-robin cursor for binary-insert placement.
    round_robin: AtomicU64,
}

impl std::ops::Deref for Shards {
    type Target = [Shard];

    fn deref(&self) -> &[Shard] {
        &self.shards
    }
}

impl Shards {
    /// Wires per-shard engines into one partition — strided id allocation,
    /// in place before any allocation — then each shard's derived
    /// structures. No engine is told of another: everything an edited image
    /// names is on its own shard.
    fn wire(engines: Vec<StorageEngine>) -> Self {
        assert!(!engines.is_empty(), "at least one shard");
        let n = engines.len() as u64;
        for (i, engine) in engines.iter().enumerate() {
            engine.set_id_stride(i as u64, n);
        }
        Shards {
            shards: engines.into_iter().map(Shard::new).collect(),
            round_robin: AtomicU64::new(0),
        }
    }

    /// The on-disk layout behind `MultimediaDatabase::create_sharded_with`.
    pub(crate) fn create(
        dir: &Path,
        quantizer: Box<dyn Quantizer>,
        opts: DurabilityOptions,
        count: usize,
    ) -> Result<Self> {
        assert!(count >= 1, "shard count must be at least 1");
        std::fs::create_dir_all(dir).map_err(StorageError::from)?;
        // Checked at every count: a sharded root has no `meta` for a single
        // engine's own check to find.
        if read_shard_manifest(dir).unwrap_or(Some(0)).is_some() || dir.join("meta").exists() {
            return Err(StorageError::Corrupt(format!(
                "database already exists at {}",
                dir.display()
            ))
            .into());
        }
        if count == 1 {
            return Ok(Self::wire(vec![StorageEngine::create_with(
                dir, quantizer, opts,
            )?]));
        }
        write_shard_manifest(dir, count).map_err(StorageError::from)?;
        let mut engines = Vec::with_capacity(count);
        for i in 0..count {
            engines.push(StorageEngine::create_with(
                &shard_dir(dir, i),
                clone_quantizer(quantizer.as_ref()),
                opts,
            )?);
        }
        Ok(Self::wire(engines))
    }

    /// Opens every engine of the layout found under `dir`.
    pub(crate) fn open(dir: &Path, opts: DurabilityOptions) -> Result<Self> {
        let engines = match read_shard_manifest(dir)? {
            None => vec![StorageEngine::open_with(dir, opts)?],
            Some(n) => {
                let mut engines = Vec::with_capacity(n);
                for i in 0..n {
                    engines.push(StorageEngine::open_with(&shard_dir(dir, i), opts)?);
                }
                engines
            }
        };
        Ok(Self::wire(engines))
    }

    /// `count` ephemeral in-memory shards.
    pub(crate) fn in_memory(quantizer: Box<dyn Quantizer>, count: usize) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        let clones: Vec<_> = (1..count)
            .map(|_| clone_quantizer(quantizer.as_ref()))
            .collect();
        let quantizers = std::iter::once(quantizer).chain(clones);
        Self::wire(quantizers.map(StorageEngine::in_memory).collect())
    }

    /// The index of the shard owning `id`'s congruence class.
    pub(crate) fn index_of(&self, id: ImageId) -> usize {
        id_class(id, self.len())
    }

    /// The shard owning `id`'s congruence class.
    pub(crate) fn owner(&self, id: ImageId) -> &Shard {
        &self[self.index_of(id)]
    }

    /// Where the next binary image goes: round-robin. (An edited image is
    /// not placed: it follows its base.)
    pub(crate) fn place_binary(&self) -> &Shard {
        &self[(self.round_robin.fetch_add(1, Ordering::Relaxed) % self.len() as u64) as usize]
    }

    /// One id list per shard, merged ascending (id spaces are disjoint, so
    /// there is nothing to deduplicate).
    pub(crate) fn merged_ids(
        &self,
        per_shard: impl Fn(&StorageEngine) -> Vec<ImageId>,
    ) -> Vec<ImageId> {
        let mut ids: Vec<ImageId> = self.iter().flat_map(|s| per_shard(&s.storage)).collect();
        ids.sort_unstable();
        ids
    }

    /// Scatter, gather, sort: every shard's slice adds to the one `ctx`. A
    /// traced `ctx` gets one `shard{i}` stage per shard so the tail sampler
    /// sees the fan-out shape (and any straggler) in one record; a single
    /// shard runs as one slice and leaves no shard records.
    pub(crate) fn range(
        &self,
        query: &ColorRangeQuery,
        plan: QueryPlan,
        ctx: &mut QueryCtx,
    ) -> Result<()> {
        if let [shard] = &self[..] {
            return shard.range(query, plan, ctx);
        }
        ctx.shards.reserve_exact(self.len());
        let mut since = std::time::Instant::now();
        for (i, shard) in self.iter().enumerate() {
            since = ctx.shard_slice(i, since, |ctx| shard.range(query, plan, ctx))?;
        }
        ctx.results.sort_unstable();
        Ok(())
    }

    /// The `k` images nearest `hist` over binary *and* edited images.
    /// Exactness under sharding: each shard returns its own exact top-k,
    /// and the global k nearest are distributed among the shards somehow,
    /// so every one of them appears in some shard's local top-k. Merging
    /// the per-shard lists and truncating therefore loses nothing. Prune
    /// counters sum — they still bound the work an unsharded run saves.
    pub(crate) fn nearest_augmented(
        &self,
        hist: &ColorHistogram,
        k: usize,
    ) -> Result<mmdb_query::KnnOutcome> {
        let mut neighbours: Vec<(f64, ImageId)> = Vec::new();
        let mut stats = mmdb_query::KnnStats::default();
        for shard in self.iter() {
            let out = mmdb_query::knn_augmented(&shard.storage, hist, k)?;
            neighbours.extend(out.neighbours);
            stats.binary_scored += out.stats.binary_scored;
            stats.edited_pruned += out.stats.edited_pruned;
            stats.edited_instantiated += out.stats.edited_instantiated;
        }
        sort_neighbours(&mut neighbours);
        neighbours.truncate(k);
        Ok(mmdb_query::KnnOutcome { neighbours, stats })
    }
}
