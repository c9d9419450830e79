//! The bound-interval index proper: memoized per-image BOUNDS vectors plus
//! per-bin interval lists, with epoch-stamped synchronization and transitive
//! invalidation through the catalog reference graph.

use crate::interval::{BinIntervals, IntervalEntry};
use mmdb_bwm::SequenceStore;
use mmdb_editops::ImageId;
use mmdb_histogram::Quantizer;
use mmdb_imaging::Rgb;
use mmdb_rules::{
    BoundRange, ColorRangeQuery, InfoResolver, Result, RuleEngine, RuleError, RuleProfile,
};
use mmdb_telemetry::{counter, gauge, histogram};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// Below this many fresh entries, [`BoundIndex::sync`] inserts them one by
/// one (cheap for steady-state churn); at or above it, entries are staged
/// per bin and merged with [`BinIntervals::insert_batch`] so a large
/// catch-up never pays per-entry vector shifts.
const BATCH_SYNC_THRESHOLD: usize = 16;

/// What one [`BoundIndex::sync`] call did — surfaced in query traces so
/// `mmdbctl explain` shows incremental maintenance cost next to lookup cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Entries added (newly inserted images plus re-added invalidation
    /// victims).
    pub added: usize,
    /// Entries removed (deleted images plus their transitive dependents).
    pub removed: usize,
    /// Fresh BOUNDS vector computations performed (memo misses).
    pub recomputed: usize,
}

/// One indexed range lookup: the candidate set plus how many resident
/// intervals were consulted (each a rule walk or histogram probe avoided).
#[derive(Clone, Debug, Default)]
pub struct IndexedLookup {
    /// Candidate images, unsorted. Same set as the RBM/BWM scans emit.
    pub ids: Vec<ImageId>,
    /// Intervals scanned to answer the query (the smaller endpoint prefix).
    pub scanned: usize,
}

/// The resident per-image record: the full memoized bounds vector (one
/// [`BoundRange`] per bin — this *is* the `(ImageId, bin, RuleProfile)`
/// memo, realized as a per-profile index holding per-image vectors) plus the
/// ids this image's sequence references (base and merge targets), which are
/// the edges the transitive invalidation walks.
#[derive(Clone, Debug)]
struct IndexEntry {
    bounds: Vec<BoundRange>,
    refs: Vec<ImageId>,
}

/// Bound-interval index for one rule profile.
///
/// All mutation goes through `&mut self`; the facade wraps the index in a
/// `RwLock` and enforces the serving invariant that a lookup is only
/// answered when [`BoundIndex::synced_epoch`] equals the storage engine's
/// current mutation epoch — a stale entry is therefore never served.
#[derive(Clone, Debug)]
pub struct BoundIndex {
    profile: RuleProfile,
    bins: Vec<BinIntervals>,
    entries: HashMap<ImageId, IndexEntry>,
    /// referenced id → images whose bounds depend on it.
    dependents: HashMap<ImageId, BTreeSet<ImageId>>,
    synced_epoch: u64,
    /// When the index last reconciled to a catalog snapshot (build or sync).
    last_synced_at: Instant,
}

impl BoundIndex {
    /// An empty index for `profile` over `bin_count` histogram bins.
    pub fn new(profile: RuleProfile, bin_count: usize) -> Self {
        BoundIndex {
            profile,
            bins: vec![BinIntervals::default(); bin_count],
            entries: HashMap::new(),
            dependents: HashMap::new(),
            synced_epoch: 0,
            last_synced_at: Instant::now(),
        }
    }

    /// The rule profile this index memoizes bounds for.
    pub fn profile(&self) -> RuleProfile {
        self.profile
    }

    /// The storage mutation epoch this index was last synchronized to.
    pub fn synced_epoch(&self) -> u64 {
        self.synced_epoch
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of histogram bins this index is organized over (the width of
    /// every entry's bounds vector).
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// True when no image is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` currently has a resident entry.
    pub fn contains(&self, id: ImageId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Wall-clock time since the last [`BoundIndex::build`] or
    /// [`BoundIndex::sync`] reconciled this index to a catalog snapshot.
    /// Staleness itself is epoch lag, not this — wall clock only bounds how
    /// long ago the reconciliation happened.
    pub fn since_last_sync(&self) -> std::time::Duration {
        self.last_synced_at.elapsed()
    }

    /// Bulk build over the full catalog, stamping the result with `epoch`
    /// (capture the storage epoch *before* reading the id lists — a
    /// concurrent mutation then leaves the stamp behind the real epoch and
    /// the next lookup re-syncs, never the reverse). Edited images' bounds
    /// vectors are computed on `threads` scoped workers, each with
    /// its own rule engine.
    #[allow(clippy::too_many_arguments)]
    pub fn build<R, S>(
        profile: RuleProfile,
        quantizer: &dyn Quantizer,
        background: Rgb,
        binary: &[ImageId],
        edited: &[ImageId],
        resolver: &R,
        store: &S,
        epoch: u64,
        threads: usize,
    ) -> Result<Self>
    where
        R: InfoResolver + Sync,
        S: SequenceStore + Sync,
    {
        let started = Instant::now();
        let bin_count = quantizer.bin_count();
        let mut idx = BoundIndex::new(profile, bin_count);
        idx.synced_epoch = epoch;

        let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
        for &id in binary {
            let Some(entry) = unless_vanished(id, binary_entry(id, bin_count, resolver))? else {
                continue;
            };
            stage_entry(&mut pending, id, &entry.bounds);
            idx.link_refs(id, &entry.refs);
            idx.entries.insert(id, entry);
        }

        let threads = threads.max(1).min(edited.len().max(1));
        let computed = if threads <= 1 || edited.len() < 2 {
            let engine = RuleEngine::with_background(quantizer, profile, background);
            compute_chunk(&engine, edited, resolver, store)?
        } else {
            compute_parallel(
                quantizer, profile, background, edited, resolver, store, threads,
            )?
        };
        counter!("mmdb_boundidx_misses_total").add(computed.len() as u64);
        for (id, entry) in computed {
            stage_entry(&mut pending, id, &entry.bounds);
            idx.link_refs(id, &entry.refs);
            idx.entries.insert(id, entry);
        }

        for (bin, entries) in pending.into_iter().enumerate() {
            idx.bins[bin] = BinIntervals::from_entries(entries);
        }
        counter!("mmdb_boundidx_builds_total").inc();
        histogram!("mmdb_boundidx_build_seconds").observe(started.elapsed());
        gauge!("mmdb_boundidx_entries").set(idx.len() as u64);
        idx.last_synced_at = Instant::now();
        Ok(idx)
    }

    /// Incremental synchronization to the catalog state captured by
    /// `epoch`/`binary`/`edited`: removes entries for deleted images (and,
    /// transitively, everything whose bounds referenced them), then
    /// (re)computes entries for every image not resident. Returns what was
    /// done for tracing.
    #[allow(clippy::too_many_arguments)]
    pub fn sync<R, S>(
        &mut self,
        epoch: u64,
        binary: &[ImageId],
        edited: &[ImageId],
        quantizer: &dyn Quantizer,
        background: Rgb,
        resolver: &R,
        store: &S,
    ) -> Result<SyncStats>
    where
        R: InfoResolver,
        S: SequenceStore,
    {
        let started = Instant::now();
        let mut stats = SyncStats::default();
        let current: HashSet<ImageId> = binary.iter().chain(edited).copied().collect();
        let stale: Vec<ImageId> = self
            .entries
            .keys()
            .filter(|id| !current.contains(id))
            .copied()
            .collect();
        for id in stale {
            stats.removed += self.invalidate(id);
        }

        let bin_count = self.bins.len();
        let mut fresh: Vec<(ImageId, IndexEntry)> = Vec::new();
        for &id in binary {
            if !self.entries.contains_key(&id) {
                if let Some(entry) = unless_vanished(id, binary_entry(id, bin_count, resolver))? {
                    fresh.push((id, entry));
                    stats.added += 1;
                }
            }
        }
        let engine = RuleEngine::with_background(quantizer, self.profile, background);
        for &id in edited {
            if !self.entries.contains_key(&id) {
                let entry = edited_entry(&engine, id, resolver, store);
                if let Some(entry) = unless_vanished(id, entry)? {
                    fresh.push((id, entry));
                    counter!("mmdb_boundidx_misses_total").inc();
                    stats.added += 1;
                    stats.recomputed += 1;
                }
            }
        }
        if fresh.len() < BATCH_SYNC_THRESHOLD {
            for (id, entry) in fresh {
                self.insert_entry(id, entry);
            }
        } else {
            // Large catch-up (warm start over a replayed WAL tail): per-entry
            // sorted inserts would shift each bin's vectors once per entry —
            // quadratic memmove traffic. Stage per bin, merge once.
            let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
            for (id, entry) in fresh {
                stage_entry(&mut pending, id, &entry.bounds);
                self.link_refs(id, &entry.refs);
                self.entries.insert(id, entry);
            }
            for (bin, batch) in pending.into_iter().enumerate() {
                self.bins[bin].insert_batch(batch);
            }
        }
        self.synced_epoch = epoch;
        self.last_synced_at = Instant::now();
        histogram!("mmdb_boundidx_sync_seconds").observe(started.elapsed());
        gauge!("mmdb_boundidx_entries").set(self.len() as u64);
        Ok(stats)
    }

    /// Removes `id`'s entry *and, transitively, every resident entry whose
    /// bounds reference it* (base links and Merge/Combine targets) — the
    /// reference-graph closure [`BoundIndex::sync`] applies to every entry
    /// the catalog dropped. Returns the number of entries dropped. Does not
    /// advance the epoch; a sync re-admits any victim that is still in the
    /// catalog.
    pub fn invalidate(&mut self, id: ImageId) -> usize {
        let mut affected = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            affected.push(node);
            if let Some(deps) = self.dependents.get(&node) {
                stack.extend(deps.iter().copied());
            }
        }
        let mut removed = 0;
        for victim in affected {
            removed += usize::from(self.remove_entry(victim));
        }
        counter!("mmdb_boundidx_invalidations_total").add(removed as u64);
        removed
    }

    /// Answers a range query from the per-bin interval lists.
    ///
    /// # Panics
    /// Panics when `query.bin` is outside this index's bin range (the same
    /// contract as `RuleEngine::bounds`; callers validate wire input first).
    pub fn lookup(&self, query: &ColorRangeQuery) -> IndexedLookup {
        let mut ids = Vec::new();
        let scanned = self.lookup_into(query, &mut ids);
        counter!("mmdb_boundidx_lookups_total").inc();
        counter!("mmdb_boundidx_hits_total").add(scanned as u64);
        IndexedLookup { ids, scanned }
    }

    /// [`BoundIndex::lookup`] appending to a caller-owned vector and leaving
    /// the counters to the caller: the shards of a scattered query share
    /// one result vector and count as one lookup.
    /// Returns the number of intervals scanned.
    ///
    /// # Panics
    /// As [`BoundIndex::lookup`].
    pub fn lookup_into(&self, query: &ColorRangeQuery, out: &mut Vec<ImageId>) -> usize {
        assert!(
            query.bin < self.bins.len(),
            "bin {} out of range for index with {} bins",
            query.bin,
            self.bins.len()
        );
        self.bins[query.bin].overlapping(query.pct_min, query.pct_max, out)
    }

    /// Exports every resident entry as an `(id, bounds, refs)` triple,
    /// sorted by id — the persistence codec's view of the index. Bounds are
    /// the exact `u64` triples, so a round trip through
    /// [`crate::persist`] reproduces bit-identical fraction intervals.
    pub fn export_entries(&self) -> Vec<(ImageId, &[BoundRange], &[ImageId])> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&id, e)| (id, e.bounds.as_slice(), e.refs.as_slice()))
            .collect();
        out.sort_unstable_by_key(|(id, _, _)| *id);
        out
    }

    /// Reassembles an index from persisted parts: the memo entries are
    /// installed verbatim and the per-bin sorted-endpoint arrays are rebuilt
    /// with one bulk sort per bin (no rule walks, no histogram probes). The
    /// result is stamped `synced_epoch` — a stamp behind the engine's
    /// current epoch makes the next lookup take the *incremental* sync
    /// path, never a cold rebuild.
    ///
    /// # Panics
    /// Panics when an entry's bounds vector disagrees with `bin_count`
    /// (callers validate decoded input first).
    pub fn assemble(
        profile: RuleProfile,
        bin_count: usize,
        synced_epoch: u64,
        entries: Vec<(ImageId, Vec<BoundRange>, Vec<ImageId>)>,
    ) -> Self {
        let mut idx = BoundIndex::new(profile, bin_count);
        idx.synced_epoch = synced_epoch;
        let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
        for (id, bounds, refs) in entries {
            assert_eq!(bounds.len(), bin_count, "bounds vector width mismatch");
            stage_entry(&mut pending, id, &bounds);
            idx.link_refs(id, &refs);
            idx.entries.insert(id, IndexEntry { bounds, refs });
        }
        for (bin, entries) in pending.into_iter().enumerate() {
            idx.bins[bin] = BinIntervals::from_entries(entries);
        }
        gauge!("mmdb_boundidx_entries").set(idx.len() as u64);
        idx.last_synced_at = Instant::now();
        idx
    }

    fn insert_entry(&mut self, id: ImageId, entry: IndexEntry) {
        for (bin, range) in entry.bounds.iter().enumerate() {
            let (lo, hi) = range.fraction_range();
            self.bins[bin].insert(IntervalEntry { lo, hi, id });
        }
        self.link_refs(id, &entry.refs);
        self.entries.insert(id, entry);
    }

    fn remove_entry(&mut self, id: ImageId) -> bool {
        let Some(entry) = self.entries.remove(&id) else {
            return false;
        };
        for (bin, range) in entry.bounds.iter().enumerate() {
            let (lo, hi) = range.fraction_range();
            let removed = self.bins[bin].remove(IntervalEntry { lo, hi, id });
            debug_assert!(removed, "bin list out of step with entry map");
        }
        for r in entry.refs {
            if let Some(deps) = self.dependents.get_mut(&r) {
                deps.remove(&id);
                if deps.is_empty() {
                    self.dependents.remove(&r);
                }
            }
        }
        true
    }

    fn link_refs(&mut self, id: ImageId, refs: &[ImageId]) {
        for &r in refs {
            self.dependents.entry(r).or_default().insert(id);
        }
    }
}

impl crate::EpochStamped for BoundIndex {
    /// The freshness stamp an [`crate::EpochSlot`] compares against the
    /// engine's current mutation epoch.
    fn stamp(&self) -> u64 {
        self.synced_epoch
    }
}

/// The entry of an image the caller listed a moment ago, or `None` when the
/// image itself has been deleted since: it simply is not indexed. (The
/// stamp was captured before the listing, so the delete's epoch bump already
/// forces the next lookup to re-sync.) A missing *referenced* image is still
/// an error.
fn unless_vanished<T>(id: ImageId, entry: Result<T>) -> Result<Option<T>> {
    match entry {
        Err(RuleError::UnknownImage(missing)) if missing == id => Ok(None),
        entry => entry.map(Some),
    }
}

fn binary_entry<R>(id: ImageId, bin_count: usize, resolver: &R) -> Result<IndexEntry>
where
    R: InfoResolver,
{
    let info = resolver.require(id)?;
    let total = info.histogram.total();
    let bounds = (0..bin_count)
        .map(|bin| BoundRange::exact(info.histogram.count(bin), total))
        .collect();
    Ok(IndexEntry {
        bounds,
        refs: Vec::new(),
    })
}

fn edited_entry<R, S>(
    engine: &RuleEngine<'_>,
    id: ImageId,
    resolver: &R,
    store: &S,
) -> Result<IndexEntry>
where
    R: InfoResolver,
    S: SequenceStore,
{
    let program = store.program(id, engine, resolver)?;
    let base = resolver.require(program.base())?;
    let bounds = program.eval_vector(engine.profile(), &base.histogram);
    let mut refs: Vec<ImageId> = program.merge_targets().collect();
    refs.push(program.base());
    refs.sort_unstable();
    refs.dedup();
    Ok(IndexEntry { bounds, refs })
}

fn compute_chunk<R, S>(
    engine: &RuleEngine<'_>,
    ids: &[ImageId],
    resolver: &R,
    store: &S,
) -> Result<Vec<(ImageId, IndexEntry)>>
where
    R: InfoResolver,
    S: SequenceStore,
{
    ids.iter()
        .filter_map(|&id| {
            let entry = unless_vanished(id, edited_entry(engine, id, resolver, store));
            entry.map(|e| e.map(|e| (id, e))).transpose()
        })
        .collect()
}

fn compute_parallel<R, S>(
    quantizer: &dyn Quantizer,
    profile: RuleProfile,
    background: Rgb,
    edited: &[ImageId],
    resolver: &R,
    store: &S,
    threads: usize,
) -> Result<Vec<(ImageId, IndexEntry)>>
where
    R: InfoResolver + Sync,
    S: SequenceStore + Sync,
{
    let chunk = edited.len().div_ceil(threads).max(1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = edited
            .chunks(chunk)
            .map(|ids| {
                scope.spawn(move || {
                    let engine = RuleEngine::with_background(quantizer, profile, background);
                    compute_chunk(&engine, ids, resolver, store)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bound-index build worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(edited.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

fn stage_entry(pending: &mut [Vec<IntervalEntry>], id: ImageId, bounds: &[BoundRange]) {
    for (bin, range) in bounds.iter().enumerate() {
        let (lo, hi) = range.fraction_range();
        pending[bin].push(IntervalEntry { lo, hi, id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::EditSequence;
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{draw, RasterImage, Rect};
    use mmdb_rules::{ImageInfo, MapInfoResolver};
    use std::sync::Arc;

    struct Fixture {
        resolver: MapInfoResolver,
        store: HashMap<ImageId, Arc<EditSequence>>,
        quant: RgbQuantizer,
        binary: Vec<ImageId>,
        edited: Vec<ImageId>,
    }

    /// Bases #1 (50% red) and #2 (10% red); edited #10 (blur on 1),
    /// #11 (modify on 2), #12 (merges base 1 into base 2's variant).
    fn fixture() -> Fixture {
        let quant = RgbQuantizer::default_64();
        let mut resolver = MapInfoResolver::new();
        let mut img1 = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img1, &Rect::new(0, 0, 10, 5), Rgb::RED);
        resolver.insert(
            ImageId::new(1),
            ImageInfo::new(ColorHistogram::extract(&img1, &quant), 10, 10),
        );
        let mut img2 = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img2, &Rect::new(0, 0, 10, 1), Rgb::RED);
        resolver.insert(
            ImageId::new(2),
            ImageInfo::new(ColorHistogram::extract(&img2, &quant), 10, 10),
        );

        let mut store: HashMap<ImageId, Arc<EditSequence>> = HashMap::new();
        store.insert(
            ImageId::new(10),
            Arc::new(
                EditSequence::builder(ImageId::new(1))
                    .define(Rect::new(0, 0, 3, 3))
                    .blur()
                    .build(),
            ),
        );
        store.insert(
            ImageId::new(11),
            Arc::new(
                EditSequence::builder(ImageId::new(2))
                    .define(Rect::new(0, 0, 2, 2))
                    .modify(Rgb::WHITE, Rgb::RED)
                    .build(),
            ),
        );
        store.insert(
            ImageId::new(12),
            Arc::new(
                EditSequence::builder(ImageId::new(2))
                    .define(Rect::new(0, 0, 4, 4))
                    .merge_into(ImageId::new(1), 0, 0)
                    .build(),
            ),
        );
        Fixture {
            resolver,
            store,
            quant,
            binary: vec![ImageId::new(1), ImageId::new(2)],
            edited: vec![ImageId::new(10), ImageId::new(11), ImageId::new(12)],
        }
    }

    fn build(f: &Fixture, threads: usize) -> BoundIndex {
        BoundIndex::build(
            RuleProfile::Conservative,
            &f.quant,
            Rgb::WHITE,
            &f.binary,
            &f.edited,
            &f.resolver,
            &f.store,
            1,
            threads,
        )
        .unwrap()
    }

    /// The indexed candidate set must equal a per-image scan using the same
    /// engine (the RBM criterion), for every bin and a spread of ranges.
    fn scan_candidates(f: &Fixture, q: &ColorRangeQuery) -> Vec<ImageId> {
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let mut out = Vec::new();
        for &id in &f.binary {
            let info = f.resolver.require(id).unwrap();
            if q.matches_fraction(info.histogram.fraction(q.bin)) {
                out.push(id);
            }
        }
        for &id in &f.edited {
            let seq = &f.store[&id];
            let b = engine.bounds(seq, q.bin, &f.resolver).unwrap();
            if b.overlaps_fraction(q.pct_min, q.pct_max) {
                out.push(id);
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn lookup_matches_scan_for_all_bins() {
        let f = fixture();
        let idx = build(&f, 1);
        assert_eq!(idx.len(), 5);
        for bin in 0..f.quant.bin_count() {
            for (pmin, pmax) in [(0.0, 1.0), (0.0, 0.05), (0.4, 0.6), (0.9, 1.0)] {
                let q = ColorRangeQuery::new(bin, pmin, pmax);
                let mut got = idx.lookup(&q).ids;
                got.sort_unstable();
                assert_eq!(got, scan_candidates(&f, &q), "bin {bin} [{pmin},{pmax}]");
            }
        }
    }

    #[test]
    fn parallel_build_equals_serial() {
        let f = fixture();
        let serial = build(&f, 1);
        let parallel = build(&f, 3);
        for bin in 0..f.quant.bin_count() {
            let q = ColorRangeQuery::new(bin, 0.0, 1.0);
            assert_eq!(
                {
                    let mut v = serial.lookup(&q).ids;
                    v.sort_unstable();
                    v
                },
                {
                    let mut v = parallel.lookup(&q).ids;
                    v.sort_unstable();
                    v
                }
            );
        }
    }

    #[test]
    fn invalidation_is_transitive_through_references() {
        let f = fixture();
        let mut idx = build(&f, 1);
        // #12 merges base 1, #10 is based on 1: invalidating base 1 must
        // drop 1, 10 and 12 but keep 2 and 11.
        let removed = idx.invalidate(ImageId::new(1));
        assert_eq!(removed, 3);
        assert_eq!(idx.len(), 2);
        assert!(!idx.contains(ImageId::new(12)));
        assert!(idx.contains(ImageId::new(11)));
        // Invalidating something unknown is a no-op.
        assert_eq!(idx.invalidate(ImageId::new(999)), 0);
    }

    #[test]
    fn sync_restores_invalidated_and_drops_deleted() {
        let f = fixture();
        let mut idx = build(&f, 1);
        idx.invalidate(ImageId::new(1));
        // Catalog unchanged → sync re-admits the victims.
        let stats = idx
            .sync(
                2,
                &f.binary,
                &f.edited,
                &f.quant,
                Rgb::WHITE,
                &f.resolver,
                &f.store,
            )
            .unwrap();
        assert_eq!(stats.added, 3);
        assert_eq!(stats.recomputed, 2); // #10 and #12; base 1 is exact
        assert_eq!(idx.synced_epoch(), 2);
        assert_eq!(idx.len(), 5);

        // Now delete edited #11 from the catalog: sync drops exactly it.
        let edited: Vec<ImageId> = vec![ImageId::new(10), ImageId::new(12)];
        let stats = idx
            .sync(
                3,
                &f.binary,
                &edited,
                &f.quant,
                Rgb::WHITE,
                &f.resolver,
                &f.store,
            )
            .unwrap();
        assert_eq!(stats.removed, 1);
        assert_eq!(idx.len(), 4);
        assert!(!idx.contains(ImageId::new(11)));
        let q = ColorRangeQuery::new(0, 0.0, 1.0);
        assert!(!idx.lookup(&q).ids.contains(&ImageId::new(11)));
    }
}
