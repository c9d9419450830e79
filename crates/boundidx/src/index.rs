//! The bound-interval index proper: memoized per-image BOUNDS vectors plus
//! per-bin interval lists, with epoch-stamped synchronization. A stored
//! image never changes and everything it names outlives it (the catalog's
//! reference rule), so an entry is computed once and dropped only when its
//! own image leaves the catalog.

use crate::interval::{BinIntervals, IntervalEntry};
use mmdb_bwm::SequenceStore;
use mmdb_editops::ImageId;
use mmdb_histogram::Quantizer;
use mmdb_imaging::Rgb;
use mmdb_rules::{BoundRange, ColorRangeQuery, InfoResolver, Result, RuleEngine, RuleProfile};
use mmdb_telemetry::{counter, gauge, histogram};
use std::collections::{HashMap, HashSet};
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
    /// Entries added: catalog images that had none.
    pub added: usize,
    /// Entries removed: images no longer in the catalog.
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

/// Bound-interval index of the Conservative rule profile, the one a
/// compiled program holds.
///
/// All mutation goes through `&mut self`; the facade wraps the index in a
/// `RwLock` and enforces the serving invariant that a lookup is only
/// answered when [`BoundIndex::synced_epoch`] equals the storage engine's
/// current mutation epoch — a stale entry is therefore never served.
#[derive(Clone, Debug)]
pub struct BoundIndex {
    bins: Vec<BinIntervals>,
    /// The resident per-image records: the full memoized bounds vector, one
    /// [`BoundRange`] per bin — this *is* the `(ImageId, bin)` memo,
    /// realized as per-image vectors.
    entries: HashMap<ImageId, Vec<BoundRange>>,
    synced_epoch: u64,
    /// When the index last reconciled to a catalog snapshot (build or sync).
    last_synced_at: Instant,
}

impl BoundIndex {
    /// An empty index over `bin_count` histogram bins.
    pub fn new(bin_count: usize) -> Self {
        BoundIndex {
            bins: vec![BinIntervals::default(); bin_count],
            entries: HashMap::new(),
            synced_epoch: 0,
            last_synced_at: Instant::now(),
        }
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

    /// Bulk build over the full catalog, stamping the result with `epoch`.
    /// The id lists, `resolver` and `store` must be one snapshot of the
    /// catalog (a storage `ReadView`), and `epoch` the epoch it was taken
    /// at: every listed id then resolves, and an id that does not is an
    /// error. Edited images' bounds vectors are computed on `threads`
    /// scoped workers, each with its own rule engine.
    ///
    /// # Panics
    /// Panics when `profile` is not [`RuleProfile::Conservative`]: a bound
    /// program holds no other profile. The parameter stays only while the
    /// benchmark harness passes it (ROADMAP item 10, "Close the benchmark
    /// spine").
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
        assert_eq!(
            profile,
            RuleProfile::Conservative,
            "a bound index holds the Conservative rules only"
        );
        let started = Instant::now();
        let bin_count = quantizer.bin_count();
        let mut idx = BoundIndex::new(bin_count);
        idx.synced_epoch = epoch;

        let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
        for &id in binary {
            let bounds = binary_entry(id, bin_count, resolver)?;
            stage_entry(&mut pending, id, &bounds);
            idx.entries.insert(id, bounds);
        }

        let threads = threads.max(1).min(edited.len().max(1));
        let computed = if threads <= 1 || edited.len() < 2 {
            compute_chunk(quantizer, background, edited, resolver, store)?
        } else {
            compute_parallel(quantizer, background, edited, resolver, store, threads)?
        };
        counter!("mmdb_boundidx_misses_total").add(computed.len() as u64);
        for (id, bounds) in computed {
            stage_entry(&mut pending, id, &bounds);
            idx.entries.insert(id, bounds);
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
    /// `epoch`/`binary`/`edited` (one snapshot with `resolver` and `store`,
    /// as for [`BoundIndex::build`]): removes the entries of deleted images,
    /// then computes entries for every image not resident. Returns what was
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
        for &id in &stale {
            self.remove_entry(id);
        }
        stats.removed = stale.len();
        counter!("mmdb_boundidx_invalidations_total").add(stale.len() as u64);

        let bin_count = self.bins.len();
        let mut fresh: Vec<(ImageId, Vec<BoundRange>)> = Vec::new();
        for &id in binary {
            if !self.entries.contains_key(&id) {
                fresh.push((id, binary_entry(id, bin_count, resolver)?));
                stats.added += 1;
            }
        }
        let engine = RuleEngine::with_background(quantizer, RuleProfile::Conservative, background);
        for &id in edited {
            if !self.entries.contains_key(&id) {
                fresh.push((id, edited_entry(&engine, id, resolver, store)?));
                counter!("mmdb_boundidx_misses_total").inc();
                stats.added += 1;
                stats.recomputed += 1;
            }
        }
        if fresh.len() < BATCH_SYNC_THRESHOLD {
            for (id, bounds) in fresh {
                self.insert_entry(id, bounds);
            }
        } else {
            // Large catch-up (warm start over a replayed WAL tail): per-entry
            // sorted inserts would shift each bin's vectors once per entry —
            // quadratic memmove traffic. Stage per bin, merge once.
            let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
            for (id, bounds) in fresh {
                stage_entry(&mut pending, id, &bounds);
                self.entries.insert(id, bounds);
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

    /// Exports every resident entry as an `(id, bounds)` pair, sorted by id
    /// — the persistence codec's view of the index. Bounds are the exact
    /// `u64` triples, so a round trip through [`crate::persist`] reproduces
    /// bit-identical fraction intervals.
    pub fn export_entries(&self) -> Vec<(ImageId, &[BoundRange])> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&id, bounds)| (id, bounds.as_slice()))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
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
        bin_count: usize,
        synced_epoch: u64,
        entries: Vec<(ImageId, Vec<BoundRange>)>,
    ) -> Self {
        let mut idx = BoundIndex::new(bin_count);
        idx.synced_epoch = synced_epoch;
        let mut pending: Vec<Vec<IntervalEntry>> = vec![Vec::new(); bin_count];
        for (id, bounds) in entries {
            assert_eq!(bounds.len(), bin_count, "bounds vector width mismatch");
            stage_entry(&mut pending, id, &bounds);
            idx.entries.insert(id, bounds);
        }
        for (bin, entries) in pending.into_iter().enumerate() {
            idx.bins[bin] = BinIntervals::from_entries(entries);
        }
        gauge!("mmdb_boundidx_entries").set(idx.len() as u64);
        idx.last_synced_at = Instant::now();
        idx
    }

    fn insert_entry(&mut self, id: ImageId, bounds: Vec<BoundRange>) {
        for (bin, range) in bounds.iter().enumerate() {
            let (lo, hi) = range.fraction_range();
            self.bins[bin].insert(IntervalEntry { lo, hi, id });
        }
        self.entries.insert(id, bounds);
    }

    fn remove_entry(&mut self, id: ImageId) {
        let bounds = self.entries.remove(&id).expect("listed as resident");
        for (bin, range) in bounds.iter().enumerate() {
            let (lo, hi) = range.fraction_range();
            let removed = self.bins[bin].remove(IntervalEntry { lo, hi, id });
            debug_assert!(removed, "bin list out of step with entry map");
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

fn binary_entry<R>(id: ImageId, bin_count: usize, resolver: &R) -> Result<Vec<BoundRange>>
where
    R: InfoResolver,
{
    let info = resolver.require(id)?;
    let total = info.histogram.total();
    Ok((0..bin_count)
        .map(|bin| BoundRange::exact(info.histogram.count(bin), total))
        .collect())
}

fn edited_entry<R, S>(
    engine: &RuleEngine<'_>,
    id: ImageId,
    resolver: &R,
    store: &S,
) -> Result<Vec<BoundRange>>
where
    R: InfoResolver,
    S: SequenceStore,
{
    let program = store.program(id, engine, resolver)?;
    let base = resolver.require(program.base())?;
    Ok(program.eval_vector(&base.histogram))
}

fn compute_chunk<R, S>(
    quantizer: &dyn Quantizer,
    background: Rgb,
    ids: &[ImageId],
    resolver: &R,
    store: &S,
) -> Result<Vec<(ImageId, Vec<BoundRange>)>>
where
    R: InfoResolver,
    S: SequenceStore,
{
    let engine = RuleEngine::with_background(quantizer, RuleProfile::Conservative, background);
    ids.iter()
        .map(|&id| Ok((id, edited_entry(&engine, id, resolver, store)?)))
        .collect()
}

fn compute_parallel<R, S>(
    quantizer: &dyn Quantizer,
    background: Rgb,
    edited: &[ImageId],
    resolver: &R,
    store: &S,
    threads: usize,
) -> Result<Vec<(ImageId, Vec<BoundRange>)>>
where
    R: InfoResolver + Sync,
    S: SequenceStore + Sync,
{
    let chunk = edited.len().div_ceil(threads).max(1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = edited
            .chunks(chunk)
            .map(|ids| {
                scope.spawn(move || compute_chunk(quantizer, background, ids, resolver, store))
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

    /// No program holds the literal Table 1 rules, so no index does.
    #[test]
    #[should_panic(expected = "Conservative rules only")]
    fn a_literal_profile_index_is_refused() {
        let f = fixture();
        let _ = BoundIndex::build(
            RuleProfile::PaperTable1,
            &f.quant,
            Rgb::WHITE,
            &f.binary,
            &f.edited,
            &f.resolver,
            &f.store,
            1,
            1,
        );
    }

    #[test]
    fn sync_admits_missing_and_drops_deleted() {
        let f = fixture();
        // Built before base #2 and edited #11, #12 were listed.
        let mut idx = BoundIndex::build(
            RuleProfile::Conservative,
            &f.quant,
            Rgb::WHITE,
            &f.binary[..1],
            &f.edited[..1],
            &f.resolver,
            &f.store,
            1,
            1,
        )
        .unwrap();
        assert_eq!(idx.len(), 2);
        // Sync admits the rest and drops nothing.
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
        assert_eq!(
            stats,
            SyncStats {
                added: 3,
                removed: 0,
                recomputed: 2, // #11 and #12; base 2 is exact
            }
        );
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
        assert_eq!((stats.added, stats.removed), (0, 1));
        assert_eq!(idx.len(), 4);
        assert!(!idx.contains(ImageId::new(11)));
        let q = ColorRangeQuery::new(0, 0.0, 1.0);
        assert!(!idx.lookup(&q).ids.contains(&ImageId::new(11)));
    }
}
