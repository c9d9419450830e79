//! The bound-interval index proper: per-bin interval lists, the only copy
//! of an interval, with epoch-stamped synchronization. A stored image never
//! changes and everything it names outlives it (the catalog's reference
//! rule), so an image's intervals are computed once and dropped only when
//! the image leaves the catalog.

use crate::interval::{gallop_prefix, merge_batch, BinIntervals, IntervalEntry};
use mmdb_bwm::SequenceStore;
use mmdb_editops::ImageId;
use mmdb_histogram::Quantizer;
use mmdb_imaging::Rgb;
use mmdb_rules::{BoundRange, ColorRangeQuery, InfoResolver, Result, RuleEngine, RuleProfile};
use mmdb_telemetry::{counter, histogram};
use std::iter;
use std::time::Instant;

/// What one [`BoundIndex::sync`] call did — surfaced in query traces so
/// `mmdbctl explain` shows incremental maintenance cost next to lookup cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Entries added: catalog images that had none.
    pub added: usize,
    /// Entries removed: images no longer in the catalog.
    pub removed: usize,
    /// Edited images whose bounds vector was computed (a binary image's
    /// intervals are read off its histogram).
    pub recomputed: usize,
}

/// One indexed range lookup: the candidate set plus how many resident
/// intervals the lookup read.
#[derive(Clone, Debug, Default)]
pub struct IndexedLookup {
    /// Candidate images, unsorted. Same set as the RBM/BWM scans emit.
    pub ids: Vec<ImageId>,
    /// Intervals scanned to answer the query: the length of the bin's
    /// window of `lo` order that its width bound leaves, every entry of
    /// which is read. A query that reaches 0 decides every resident image,
    /// listed or `[0, 0]`, so it reports the resident count (see
    /// [`BoundIndex::lookup_into`]).
    pub scanned: usize,
}

/// Bound-interval index of the Conservative rule profile, the one a
/// compiled program holds.
///
/// A bin lists only the images whose interval there is not `[0, 0]`: an
/// image has only a few colours, and on a flag collection 94 % of the
/// dense intervals are `[0, 0]`. A resident image a bin does not list has
/// `[0, 0]` in it.
///
/// All mutation goes through `&mut self`; the facade wraps the index in a
/// `RwLock` and enforces the serving invariant that a lookup is only
/// answered when [`BoundIndex::synced_epoch`] equals the storage engine's
/// current mutation epoch — a stale entry is therefore never served.
#[derive(Clone, Debug)]
pub struct BoundIndex {
    /// One interval list per bin: the only copy of an image's intervals
    /// that are not `[0, 0]`.
    bins: Vec<BinIntervals>,
    /// The indexed images, ascending, listed in a bin or not.
    resident: Vec<ImageId>,
    synced_epoch: u64,
    /// When the index last reconciled to a catalog snapshot (build or sync).
    last_synced_at: Instant,
}

/// Intervals waiting to enter an index: each image's, staged per bin, so
/// [`BoundIndex::admit`] merges every bin with one
/// [`BinIntervals::insert_batch`].
pub(crate) struct Staged {
    ids: Vec<ImageId>,
    bins: Vec<Vec<IntervalEntry>>,
}

impl Staged {
    /// Room for `images` images over `bin_count` bins. A bin's batch grows
    /// with the intervals it gets, a few per image, so none is reserved.
    pub(crate) fn with_capacity(bin_count: usize, images: usize) -> Self {
        Staged {
            ids: Vec::with_capacity(images),
            bins: vec![Vec::new(); bin_count],
        }
    }

    /// Stages `id` and its `(bin, lo, hi)` fraction intervals, dropping
    /// every `[0, 0]` one: the index lists an image only where it may have
    /// the colour. Each bin at most once, and below the bin count.
    pub(crate) fn push(
        &mut self,
        id: ImageId,
        intervals: impl IntoIterator<Item = (usize, f64, f64)>,
    ) {
        for (bin, lo, hi) in intervals {
            if lo != 0.0 || hi != 0.0 {
                self.bins[bin].push(IntervalEntry { lo, hi, id });
            }
        }
        self.ids.push(id);
    }
}

impl BoundIndex {
    /// An empty index over `bin_count` histogram bins.
    pub fn new(bin_count: usize) -> Self {
        BoundIndex {
            bins: vec![BinIntervals::default(); bin_count],
            resident: Vec::new(),
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
        self.resident.len()
    }

    /// Number of histogram bins this index is organized over.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// True when no image is indexed.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Wall-clock time since the last [`BoundIndex::build`] or
    /// [`BoundIndex::sync`] reconciled this index to a catalog snapshot.
    /// Staleness itself is epoch lag, not this — wall clock only bounds how
    /// long ago the reconciliation happened.
    pub fn since_last_sync(&self) -> std::time::Duration {
        self.last_synced_at.elapsed()
    }

    /// Bulk build over the full catalog, stamping the result with `epoch`:
    /// [`BoundIndex::new`] reconciled to the listing, as a sync would.
    /// The id lists, `resolver` and `store` must be one snapshot of the
    /// catalog (a storage `ReadView`), and `epoch` the epoch it was taken
    /// at: every listed id then resolves, and an id that does not is an
    /// error. Edited images' bounds vectors are computed in `threads`
    /// chunks: the calling thread runs one and a scoped worker each of the
    /// others.
    ///
    /// # Panics
    /// Panics when `binary` or `edited` does not ascend by id (every
    /// catalog listing does), and when `profile` is not
    /// [`RuleProfile::Conservative`]: a bound program holds no other
    /// profile. The parameter stays only while the benchmark harness passes
    /// it (ROADMAP item 10, "Close the benchmark spine").
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
        let mut idx = BoundIndex::new(quantizer.bin_count());
        let engine = RuleEngine::with_background(quantizer, profile, background);
        idx.reconcile(epoch, binary, edited, &engine, resolver, store, threads)?;
        counter!("mmdb_boundidx_builds_total").inc();
        histogram!("mmdb_boundidx_build_seconds").observe(started.elapsed());
        Ok(idx)
    }

    /// Incremental synchronization to the catalog state captured by
    /// `epoch`/`binary`/`edited` (one snapshot with `resolver` and `store`,
    /// as for [`BoundIndex::build`]): drops the intervals of deleted images
    /// and admits every listed image not resident, computed on the calling
    /// thread. Returns what was done for tracing.
    ///
    /// # Errors
    /// As computing a new image's intervals, e.g. an id `resolver` lacks;
    /// the index is then left as it was.
    ///
    /// # Panics
    /// Panics when `binary` or `edited` does not ascend by id.
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
        R: InfoResolver + Sync,
        S: SequenceStore + Sync,
    {
        let started = Instant::now();
        let engine = RuleEngine::with_background(quantizer, RuleProfile::Conservative, background);
        let stats = self.reconcile(epoch, binary, edited, &engine, resolver, store, 1)?;
        counter!("mmdb_boundidx_invalidations_total").add(stats.removed as u64);
        histogram!("mmdb_boundidx_sync_seconds").observe(started.elapsed());
        Ok(stats)
    }

    /// What a reconcile to the listing `binary`/`edited` does, as ascending
    /// `(gone, new binary, new edited)` ids: one merge of the listing
    /// against the resident ids, where listed ids below a resident id are
    /// new and the resident id is gone unless listed. Panics when `binary`
    /// or `edited` does not ascend by id.
    pub(crate) fn diff(&self, binary: &[ImageId], edited: &[ImageId]) -> [Vec<ImageId>; 3] {
        for listed in [binary, edited] {
            assert!(
                listed.windows(2).all(|w| w[0] < w[1]),
                "a catalog listing must ascend by id"
            );
        }
        let (mut binary, mut edited) = (binary.iter().peekable(), edited.iter().peekable());
        let (mut gone, mut new_binary, mut new_edited) = (Vec::new(), Vec::new(), Vec::new());
        for id in &self.resident {
            new_binary.extend(iter::from_fn(|| binary.next_if(|&b| b < id)));
            new_edited.extend(iter::from_fn(|| edited.next_if(|&e| e < id)));
            if binary.next_if_eq(&id).is_none() && edited.next_if_eq(&id).is_none() {
                gone.push(*id);
            }
        }
        new_binary.extend(binary);
        new_edited.extend(edited);
        [gone, new_binary, new_edited]
    }

    /// Brings the index to the listing `binary`/`edited` read at `epoch`,
    /// ending a build and a sync alike: one [`BoundIndex::diff`], then the
    /// new images' intervals in `threads` chunks. Only then does the index
    /// change (the gone ids leave every bin, [`BoundIndex::admit`] merges
    /// the new ones in), so an error leaves it as it was.
    #[allow(clippy::too_many_arguments)]
    fn reconcile<R, S>(
        &mut self,
        epoch: u64,
        binary: &[ImageId],
        edited: &[ImageId],
        engine: &RuleEngine<'_>,
        resolver: &R,
        store: &S,
        threads: usize,
    ) -> Result<SyncStats>
    where
        R: InfoResolver + Sync,
        S: SequenceStore + Sync,
    {
        let [gone, binary, edited] = self.diff(binary, edited);
        let bin_count = self.bins.len();
        let mut staged = Staged::with_capacity(bin_count, binary.len() + edited.len());
        for &id in &binary {
            // A binary image's intervals are its exact fractions.
            let histogram = &resolver.require(id)?.histogram;
            let fractions = (0..bin_count).map(|bin| histogram.fraction(bin));
            staged.push(id, fractions.enumerate().map(|(bin, f)| (bin, f, f)));
        }
        for (id, bounds) in compute_bounds(engine, &edited, resolver, store, threads)? {
            let ranges = bounds.iter().map(BoundRange::fraction_range);
            staged.push(id, ranges.enumerate().map(|(bin, (lo, hi))| (bin, lo, hi)));
        }
        counter!("mmdb_boundidx_misses_total").add(edited.len() as u64);
        if !gone.is_empty() {
            for bin in &mut self.bins {
                bin.remove_batch(&gone);
            }
            self.resident.retain(|id| gone.binary_search(id).is_err());
        }
        self.admit(staged, epoch);
        Ok(SyncStats {
            added: binary.len() + edited.len(),
            removed: gone.len(),
            recomputed: edited.len(),
        })
    }

    /// The one way intervals enter the index, ending a build, a sync and a
    /// load alike: merges each bin's staged intervals with one
    /// [`BinIntervals::insert_batch`] and stamps the index synced to
    /// `epoch`. A stamp behind the engine's current epoch makes the next
    /// lookup take the incremental sync path, never a cold rebuild.
    pub(crate) fn admit(&mut self, mut staged: Staged, epoch: u64) {
        merge_batch(&mut self.resident, &mut staged.ids, ImageId::cmp);
        for (bin, batch) in self.bins.iter_mut().zip(staged.bins) {
            bin.insert_batch(batch);
        }
        self.synced_epoch = epoch;
        self.last_synced_at = Instant::now();
    }

    /// The resident ids and the per-bin lists — the persistence codec's
    /// view of the index.
    pub(crate) fn parts(&self) -> (&[ImageId], &[BinIntervals]) {
        (&self.resident, &self.bins)
    }

    /// Answers a range query from the per-bin interval lists. It moves no
    /// counter: a served query is counted once, by the query executor.
    ///
    /// # Panics
    /// Panics when `query.bin` is outside this index's bin range (the same
    /// contract as `RuleEngine::bounds`; callers validate wire input first).
    pub fn lookup(&self, query: &ColorRangeQuery) -> IndexedLookup {
        let mut ids = Vec::new();
        let scanned = self.lookup_into(query, &mut ids);
        IndexedLookup { ids, scanned }
    }

    /// [`BoundIndex::lookup`] appending to a caller-owned vector: the shards
    /// of a scattered query share one result vector.
    /// Returns the number of intervals scanned.
    ///
    /// A query that does not reach 0 (`pct_min > 0`, in practice) cannot
    /// match `[0, 0]`, so the bin's listed intervals answer it alone. One
    /// that does is an "at most `pct_max`" query: every listed interval
    /// has `hi > 0 >= pct_min`, so the answer is every resident image but
    /// those listed with `lo > pct_max`. One gallop over the bin finds
    /// those; sorted by id, they split the ascending resident ids into runs
    /// that are copied whole. It returns the resident count.
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
        let bin = &self.bins[query.bin];
        // `<=`, so a `-0.0` bound reaches 0 as well.
        if !(query.pct_min <= 0.0 && 0.0 <= query.pct_max) {
            return bin.overlapping(query.pct_min, query.pct_max, out);
        }
        let mut above: Vec<ImageId> = bin.lo_above(query.pct_max).iter().map(|e| e.id).collect();
        above.sort_unstable();
        // Both ascend and `above` is resident: copy the runs between them.
        let mut rest = &self.resident[..];
        for id in &above {
            let at = gallop_prefix(rest.len(), |i| rest[i] < *id);
            debug_assert_eq!(rest.get(at), Some(id), "a listed image is resident");
            out.extend_from_slice(&rest[..at]);
            rest = &rest[at + 1..];
        }
        out.extend_from_slice(rest);
        self.resident.len()
    }
}

impl crate::EpochStamped for BoundIndex {
    /// The freshness stamp an [`crate::EpochSlot`] compares against the
    /// engine's current mutation epoch.
    fn stamp(&self) -> u64 {
        self.synced_epoch
    }
}

/// The bounds vectors of the `edited` images, in `threads` chunks (at
/// least one, at most one per image): the calling thread runs the first
/// and a scoped worker each of the others, so one thread spawns none.
fn compute_bounds<R, S>(
    engine: &RuleEngine<'_>,
    edited: &[ImageId],
    resolver: &R,
    store: &S,
    threads: usize,
) -> Result<Vec<(ImageId, Vec<BoundRange>)>>
where
    R: InfoResolver + Sync,
    S: SequenceStore + Sync,
{
    let chunk = |ids: &[ImageId]| -> Result<Vec<(ImageId, Vec<BoundRange>)>> {
        ids.iter()
            .map(|&id| {
                let program = store.program(id, engine, resolver)?;
                let base = resolver.require(program.view().base())?;
                Ok((id, program.view().eval_vector(&base.histogram)))
            })
            .collect()
    };
    let mut chunks = edited.chunks(edited.len().div_ceil(threads.max(1)).max(1));
    let own = chunks.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = chunks.map(|ids| scope.spawn(move || chunk(ids))).collect();
        let mut out = chunk(own)?;
        out.reserve(edited.len() - out.len());
        for worker in workers {
            out.extend(worker.join().expect("bound-index build worker panicked")?);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::EditSequence;
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{draw, RasterImage, Rect};
    use mmdb_rules::{ImageInfo, MapInfoResolver};
    use std::collections::HashMap;
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
        let q = ColorRangeQuery::new(0, 0.0, 1.0);
        assert!(!idx.lookup(&q).ids.contains(&ImageId::new(11)));
    }
}
