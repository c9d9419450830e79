//! The proposed data structure (§4.1) and its insertion algorithm (Fig. 1).

use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::ColorHistogram;
use mmdb_rules::{BoundProgram, InfoResolver, ProgramBlock, ProgramRef, RuleEngine, RuleError};
use mmdb_telemetry::counter;
use std::sync::{Arc, OnceLock};

/// Where an edited image landed during Fig. 1 classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// All operations have bound-widening rules — clustered in the Main
    /// Component under the referenced base image.
    Main,
    /// At least one operation's rule is not bound-widening.
    Unclassified,
}

/// Access to stored edit sequences by id. Implemented by the storage engine
/// and by its read view; tests can use a map.
pub trait SequenceStore {
    /// The stored sequence of an edited image.
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>>;

    /// The sequence of edited image `id` compiled for BOUNDS. The default
    /// compiles on every call with the caller's engine and resolver; a
    /// store that keeps programs (the storage engine, in its Figure 1
    /// entries) compiles at most once per image, with the database's own
    /// quantizer and background — which is what every engine over that
    /// database is built from — and hands out a copy.
    ///
    /// # Errors
    /// [`RuleError::UnknownImage`] when `id` has no stored sequence, or
    /// whatever compilation reports.
    fn program(
        &self,
        id: ImageId,
        engine: &RuleEngine<'_>,
        resolver: &dyn InfoResolver,
    ) -> Result<BoundProgram, RuleError> {
        let sequence = self.sequence(id).ok_or(RuleError::UnknownImage(id))?;
        engine.compile(&sequence, resolver)
    }
}

impl SequenceStore for std::collections::HashMap<ImageId, Arc<EditSequence>> {
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        self.get(&id).cloned()
    }
}

/// What BOUNDS needs to compile a program on first use: the view's stored
/// sequences, the engine, and the view's catalog for the base's and every
/// merge target's histogram and dimensions.
pub(crate) struct Compiler<'a, S: ?Sized> {
    pub(crate) store: &'a S,
    pub(crate) engine: &'a RuleEngine<'a>,
    pub(crate) resolver: &'a dyn InfoResolver,
}

impl<S: SequenceStore + ?Sized> Compiler<'_, S> {
    fn sequence(&self, id: ImageId) -> Result<Arc<EditSequence>, RuleError> {
        self.store.sequence(id).ok_or(RuleError::UnknownImage(id))
    }

    /// Compiles edited image `id`'s sequence onto the end of `block`.
    fn compile_into(&self, id: ImageId, block: &mut ProgramBlock) -> Result<(), RuleError> {
        let sequence = self.sequence(id)?;
        self.engine.compile_into(&sequence, self.resolver, block)
    }

    /// Compiles edited image `id`'s sequence.
    fn compile(&self, id: ImageId) -> Result<BoundProgram, RuleError> {
        let sequence = self.sequence(id)?;
        self.engine.compile(&sequence, self.resolver)
    }
}

/// A cluster's member programs in one block, in member order, with their
/// per-kind operation counts summed: what a walk of the whole cluster adds
/// to its work counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ClusterPrograms {
    pub(crate) block: ProgramBlock,
    pub(crate) kind_counts: [usize; 6],
}

/// One element `<B_id, E_list>` of the Main Component, carrying what
/// Figure 2 reads of it beside the base's counts in the structure's
/// columns: its members' BOUNDS programs, compiled together by the first
/// scan that walks any of them. Nothing a program holds can change while
/// its image is stored, so only a change of members drops the block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Cluster {
    /// The base's exact histogram, the catalog's own, shared with the
    /// Unclassified entries derived from the base.
    pub(crate) histogram: Arc<ColorHistogram>,
    /// `E_list`, ascending.
    pub(crate) ids: Vec<ImageId>,
    /// `programs.block` holds one program per member of `ids`, in order.
    pub(crate) programs: OnceLock<Box<ClusterPrograms>>,
}

impl Cluster {
    /// The members' programs, compiled by `compiler` into one block on
    /// first use: the one way a scan or the storage engine reaches a
    /// clustered image's program. A failed compile keeps nothing.
    pub(crate) fn programs<S: SequenceStore + ?Sized>(
        &self,
        compiler: &Compiler<'_, S>,
    ) -> Result<&ClusterPrograms, RuleError> {
        if let Some(programs) = self.programs.get() {
            return Ok(programs);
        }
        let mut block = ProgramBlock::new();
        for &id in &self.ids {
            compiler.compile_into(id, &mut block)?;
        }
        block.shrink_to_fit();
        let mut kind_counts = [0; 6];
        for program in block.iter() {
            for (sum, &n) in kind_counts.iter_mut().zip(program.kind_counts()) {
                *sum += n as usize;
            }
        }
        let programs = ClusterPrograms { block, kind_counts };
        Ok(self.programs.get_or_init(|| Box::new(programs)))
    }
}

/// One entry of the Unclassified Component: an edited image, its base's
/// exact histogram and its program, compiled on first use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Loose {
    pub(crate) id: ImageId,
    pub(crate) base: Arc<ColorHistogram>,
    pub(crate) program: OnceLock<BoundProgram>,
}

impl Loose {
    /// The entry's program, compiled by `compiler` on first use. A failed
    /// compile keeps nothing.
    pub(crate) fn program<S: SequenceStore + ?Sized>(
        &self,
        compiler: &Compiler<'_, S>,
    ) -> Result<ProgramRef<'_>, RuleError> {
        if let Some(program) = self.program.get() {
            return Ok(program.view());
        }
        let program = compiler.compile(self.id)?;
        Ok(self.program.get_or_init(|| program).view())
    }
}

/// Where an edited image sits in Figure 1.
enum Location {
    /// Member `member` of the cluster at `cluster`.
    Main { cluster: usize, member: usize },
    /// Entry `at` of the Unclassified Component.
    Unclassified(usize),
}

/// The Main + Unclassified components of §4.1.
///
/// "Each element of the Main Component is composed of a tuple `<B_id,
/// E_list>` where `B_id` is the identifier of \[the\] referenced base image and
/// `E_list` is the list of identifiers of edited images that were created
/// from modifying `B_id`." The clusters are kept sorted by base id ("the
/// list of identifiers should be kept sorted to make it easier to search
/// for a specific binary image"), and beside them the bases' exact counts,
/// one column per histogram bin plus one of totals, so a scan tests every
/// base of one bin in one sequential read. Ids stay ascending within a
/// cluster and within the Unclassified Component, so an edited image's
/// entry is one binary search away from its base.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BwmStructure {
    /// Base ids, ascending; `clusters[i]`, `totals[i]` and every
    /// `counts[bin][i]` belong to `bases[i]`.
    pub(crate) bases: Vec<ImageId>,
    pub(crate) clusters: Vec<Cluster>,
    /// One column per histogram bin: each base's pixels in that bin, in 32
    /// bits. A base of 2³² pixels or more, whose edited images no program
    /// can bound, reads `u32::MAX` there; [`BwmStructure::base_count`]
    /// reads its histogram instead.
    pub(crate) counts: Vec<Vec<u32>>,
    /// Each base's pixels.
    pub(crate) totals: Vec<u64>,
    pub(crate) unclassified: Vec<Loose>,
}

impl BwmStructure {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fig. 1 step for a binary image: "each time an image stored in a
    /// traditional binary format is inserted, the identifier for its
    /// corresponding histogram should be added to the Main Component" — an
    /// empty cluster keyed by the image, holding `histogram`, its exact
    /// histogram, whose counts join the columns.
    ///
    /// # Panics
    /// Panics when `histogram` has another bin count than the structure's
    /// other bases: one database has one quantizer.
    pub fn insert_binary(&mut self, id: ImageId, histogram: Arc<ColorHistogram>) {
        counter!("mmdb_bwm_cluster_inserts_total").inc();
        let at = self.bases.partition_point(|&b| b < id);
        if self.bases.get(at) == Some(&id) {
            return;
        }
        if self.bases.is_empty() {
            self.counts.resize(histogram.bin_count(), Vec::new());
        }
        assert_eq!(
            histogram.bin_count(),
            self.counts.len(),
            "every base of one structure has the same bins"
        );
        for (column, &count) in self.counts.iter_mut().zip(histogram.counts()) {
            column.insert(at, u32::try_from(count).unwrap_or(u32::MAX));
        }
        self.totals.insert(at, histogram.total());
        self.bases.insert(at, id);
        let cluster = Cluster {
            histogram,
            ids: Vec::new(),
            programs: OnceLock::new(),
        };
        self.clusters.insert(at, cluster);
    }

    /// The position of `base`'s cluster.
    fn position(&self, base: ImageId) -> Option<usize> {
        self.bases.binary_search(&base).ok()
    }

    /// Fig. 1 for an edited image: all operations bound-widening → into
    /// the base's cluster in Main, otherwise into Unclassified. Returns the
    /// classification, or `None` — inserting nothing — when the base has
    /// no cluster here. A new member drops its cluster's compiled block.
    pub fn insert_edited(
        &mut self,
        id: ImageId,
        sequence: &EditSequence,
    ) -> Option<Classification> {
        let at = self.position(sequence.base)?;
        let cluster = &mut self.clusters[at];
        if sequence.all_bound_widening() {
            counter!(r#"mmdb_bwm_edited_inserts_total{component="classified"}"#).inc();
            let at = cluster.ids.partition_point(|&e| e < id);
            cluster.ids.insert(at, id);
            cluster.programs = OnceLock::new();
            Some(Classification::Main)
        } else {
            counter!(r#"mmdb_bwm_edited_inserts_total{component="unclassified"}"#).inc();
            let entry = Loose {
                id,
                base: Arc::clone(&cluster.histogram),
                program: OnceLock::new(),
            };
            let at = self.unclassified.partition_point(|e| e.id < id);
            self.unclassified.insert(at, entry);
            Some(Classification::Unclassified)
        }
    }

    /// Rebuilds the structure from scratch over a set of images — used when
    /// attaching BWM to an existing database. A binary image `store` does
    /// not resolve, and an edited image it holds no sequence for, are left
    /// out.
    pub fn build<S: SequenceStore + InfoResolver>(
        binary_ids: impl IntoIterator<Item = ImageId>,
        edited_ids: impl IntoIterator<Item = ImageId>,
        store: &S,
    ) -> Self {
        let mut s = BwmStructure::new();
        for id in binary_ids {
            if let Some(info) = store.info(id) {
                s.insert_binary(id, info.histogram);
            }
        }
        for id in edited_ids {
            if let Some(seq) = store.sequence(id) {
                s.insert_edited(id, &seq);
            }
        }
        s
    }

    /// Takes over every cluster and unclassified entry of `other`, a
    /// structure over other base images (another shard's), keeping both
    /// components ascending — what [`BwmStructure::build`] over both
    /// catalogs yields.
    pub fn absorb(&mut self, other: BwmStructure) {
        let mine = std::mem::take(self);
        if mine.bases.is_empty() || other.bases.is_empty() {
            let (mut kept, rest) = match mine.bases.is_empty() {
                true => (other, mine),
                false => (mine, other),
            };
            kept.unclassified.extend(rest.unclassified);
            kept.unclassified.sort_unstable_by_key(|e| e.id);
            *self = kept;
            return;
        }
        // Slot `i` is `mine`'s `i`-th base, then `other`'s; `order` lists
        // the slots by base id.
        let bases: Vec<ImageId> = mine.bases.iter().chain(&other.bases).copied().collect();
        let mut order: Vec<usize> = (0..bases.len()).collect();
        order.sort_unstable_by_key(|&slot| bases[slot]);
        let columns = mine.counts.into_iter().zip(other.counts);
        self.counts = columns
            .map(|(a, b)| in_order(a.into_iter().chain(b), &order))
            .collect();
        self.totals = in_order(mine.totals.into_iter().chain(other.totals), &order);
        self.clusters = in_order(mine.clusters.into_iter().chain(other.clusters), &order);
        self.bases = in_order(bases, &order);
        self.unclassified = mine.unclassified;
        self.unclassified.extend(other.unclassified);
        self.unclassified.sort_unstable_by_key(|e| e.id);
    }

    /// Removes a binary image and its cluster. The storage engine deletes
    /// only an image no stored sequence names, so the cluster is empty.
    /// Unknown ids are a no-op.
    pub fn remove_binary(&mut self, id: ImageId) {
        counter!("mmdb_bwm_removals_total").inc();
        let Some(at) = self.position(id) else {
            return;
        };
        for column in &mut self.counts {
            column.remove(at);
        }
        self.totals.remove(at);
        self.bases.remove(at);
        self.clusters.remove(at);
        if self.bases.is_empty() {
            self.counts.clear();
        }
    }

    /// Removes an edited image derived from `base`. An edited image is
    /// either in its base's cluster or unclassified, so this looks at that
    /// one cluster and the Unclassified Component — never at other
    /// clusters. Unknown ids are a no-op; a member leaving drops its
    /// cluster's compiled block.
    pub fn remove_edited(&mut self, id: ImageId, base: ImageId) {
        counter!("mmdb_bwm_removals_total").inc();
        match self.locate(id, base) {
            Some(Location::Main { cluster, member }) => {
                let cluster = &mut self.clusters[cluster];
                cluster.ids.remove(member);
                cluster.programs = OnceLock::new();
            }
            Some(Location::Unclassified(at)) => {
                self.unclassified.remove(at);
            }
            None => {}
        }
    }

    /// Where edited image `id`, derived from `base`, sits: in its base's
    /// cluster or in the Unclassified Component.
    fn locate(&self, id: ImageId, base: ImageId) -> Option<Location> {
        if let Some(cluster) = self.position(base) {
            if let Ok(member) = self.clusters[cluster].ids.binary_search(&id) {
                return Some(Location::Main { cluster, member });
            }
        }
        let loose = self.unclassified.binary_search_by_key(&id, |e| e.id);
        loose.ok().map(Location::Unclassified)
    }

    /// The classification of an edited image derived from `base`, or
    /// `None` if untracked.
    pub fn classification(&self, id: ImageId, base: ImageId) -> Option<Classification> {
        self.locate(id, base).map(|location| match location {
            Location::Main { .. } => Classification::Main,
            Location::Unclassified(_) => Classification::Unclassified,
        })
    }

    /// Edited image `id`'s BOUNDS program — `id` derived from `base` —
    /// from the block its cluster keeps or its Unclassified entry,
    /// compiled on first use from `store`'s sequences by `engine` against
    /// `resolver`, as a scan compiles it.
    ///
    /// # Errors
    /// [`RuleError::UnknownImage`] when `id` is untracked or `store` lacks
    /// a sequence a compile needs, or whatever compilation reports.
    pub fn program<S: SequenceStore + ?Sized>(
        &self,
        id: ImageId,
        base: ImageId,
        store: &S,
        engine: &RuleEngine<'_>,
        resolver: &dyn InfoResolver,
    ) -> Result<ProgramRef<'_>, RuleError> {
        let compiler = Compiler {
            store,
            engine,
            resolver,
        };
        match self.locate(id, base).ok_or(RuleError::UnknownImage(id))? {
            Location::Main { cluster, member } => {
                let programs = self.clusters[cluster].programs(&compiler)?;
                Ok(programs.block.get(member).expect("one program per member"))
            }
            Location::Unclassified(at) => self.unclassified[at].program(&compiler),
        }
    }

    /// True when edited image `id`, derived from `base`, is tracked and its
    /// program is compiled and kept.
    pub fn holds_program(&self, id: ImageId, base: ImageId) -> bool {
        match self.locate(id, base) {
            Some(Location::Main { cluster, .. }) => self.clusters[cluster].programs.get().is_some(),
            Some(Location::Unclassified(at)) => self.unclassified[at].program.get().is_some(),
            None => false,
        }
    }

    /// Iterates `(base, edited-cluster)` in ascending base-id order.
    pub fn clusters(&self) -> impl Iterator<Item = (ImageId, &[ImageId])> + '_ {
        let clusters = self.clusters.iter().map(|c| c.ids.as_slice());
        self.bases.iter().copied().zip(clusters)
    }

    /// The cluster for one base image.
    pub fn cluster_of(&self, base: ImageId) -> Option<&[ImageId]> {
        Some(&self.clusters[self.position(base)?].ids)
    }

    /// The exact histogram the cluster of `base` was inserted with.
    pub fn base_histogram(&self, base: ImageId) -> Option<&Arc<ColorHistogram>> {
        Some(&self.clusters[self.position(base)?].histogram)
    }

    /// Every base's pixels in `bin`, in base-id order: the column a scan
    /// tests queries on `bin` against, `u32::MAX` for a base of 2³² pixels
    /// or more. Empty when there is no base.
    pub fn base_counts(&self, bin: usize) -> &[u32] {
        match self.bases.is_empty() {
            true => &[],
            false => &self.counts[bin],
        }
    }

    /// The pixels in `bin` of the base at position `at`, read from the
    /// column `counts` of `bin` ([`BwmStructure::base_counts`]), or from
    /// its histogram when its total does not fit 32 bits.
    #[inline]
    pub(crate) fn base_count(&self, at: usize, bin: usize, counts: &[u32]) -> u64 {
        match u32::try_from(self.totals[at]) {
            Ok(_) => u64::from(counts[at]),
            Err(_) => self.clusters[at].histogram.count(bin),
        }
    }

    /// Every base's total pixels, in base-id order.
    pub fn base_totals(&self) -> &[u64] {
        &self.totals
    }

    /// The Unclassified Component, ascending.
    pub fn unclassified(&self) -> impl ExactSizeIterator<Item = &ImageId> + '_ {
        self.unclassified.iter().map(|e| &e.id)
    }

    /// Number of Main-Component clusters (= tracked binary images).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of edited images in the Main Component.
    pub fn classified_count(&self) -> usize {
        self.clusters.iter().map(|c| c.ids.len()).sum()
    }

    /// Number of edited images in the Unclassified Component.
    pub fn unclassified_count(&self) -> usize {
        self.unclassified.len()
    }
}

/// The items of `slots` rearranged so that the `i`-th is the one at slot
/// `order[i]`.
fn in_order<T>(slots: impl IntoIterator<Item = T>, order: &[usize]) -> Vec<T> {
    let mut slots: Vec<Option<T>> = slots.into_iter().map(Some).collect();
    let take = |slot: &usize| slots[*slot].take().expect("each slot is ordered once");
    order.iter().map(take).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_imaging::{RasterImage, Rect, Rgb};
    use mmdb_rules::{ImageInfo, MapInfoResolver};
    use std::collections::HashMap;

    fn histogram() -> Arc<ColorHistogram> {
        let img = RasterImage::filled(4, 4, Rgb::RED).unwrap();
        Arc::new(ColorHistogram::extract(&img, &RgbQuantizer::default_64()))
    }

    fn widening(base: u64) -> EditSequence {
        EditSequence::builder(ImageId::new(base))
            .define(Rect::new(0, 0, 4, 4))
            .modify(Rgb::RED, Rgb::BLUE)
            .blur()
            .build()
    }

    fn non_widening(base: u64, target: u64) -> EditSequence {
        EditSequence::builder(ImageId::new(base))
            .define(Rect::new(0, 0, 2, 2))
            .merge_into(ImageId::new(target), 0, 0)
            .build()
    }

    #[test]
    fn insertion_classifies_per_fig1() {
        let mut s = BwmStructure::new();
        s.insert_binary(ImageId::new(1), histogram());
        s.insert_binary(ImageId::new(2), histogram());
        assert_eq!(s.cluster_count(), 2);

        let c = s.insert_edited(ImageId::new(10), &widening(1));
        assert_eq!(c, Some(Classification::Main));
        let c = s.insert_edited(ImageId::new(11), &non_widening(1, 2));
        assert_eq!(c, Some(Classification::Unclassified));
        // No cluster for the base: nothing to attach to.
        assert_eq!(s.insert_edited(ImageId::new(12), &widening(9)), None);

        assert_eq!(s.cluster_of(ImageId::new(1)).unwrap(), &[ImageId::new(10)]);
        assert!(s.unclassified().eq([&ImageId::new(11)]));
        assert_eq!(s.classified_count(), 1);
        assert_eq!(s.unclassified_count(), 1);
        let base = ImageId::new(1);
        assert_eq!(
            s.classification(ImageId::new(10), base),
            Some(Classification::Main)
        );
        assert_eq!(
            s.classification(ImageId::new(11), base),
            Some(Classification::Unclassified)
        );
        assert_eq!(s.classification(ImageId::new(99), base), None);
        // An unclassified entry shares its base's histogram.
        assert!(Arc::ptr_eq(
            &s.unclassified[0].base,
            s.base_histogram(base).unwrap()
        ));
    }

    #[test]
    fn clusters_iterate_sorted_by_base() {
        let mut s = BwmStructure::new();
        for b in [5u64, 1, 3] {
            s.insert_binary(ImageId::new(b), histogram());
        }
        let order: Vec<u64> = s.clusters().map(|(b, _)| b.raw()).collect();
        assert_eq!(order, vec![1, 3, 5]);
        for id in [30, 10, 20] {
            s.insert_edited(ImageId::new(id), &widening(1));
            s.insert_edited(ImageId::new(id + 1), &non_widening(3, 1));
        }
        let raw = |ids: Vec<&ImageId>| ids.into_iter().map(|id| id.raw()).collect::<Vec<_>>();
        assert_eq!(
            raw(s.cluster_of(ImageId::new(1)).unwrap().iter().collect()),
            [10, 20, 30]
        );
        assert_eq!(raw(s.unclassified().collect()), [11, 21, 31]);
    }

    #[test]
    fn build_from_store() {
        struct Store(HashMap<ImageId, Arc<EditSequence>>, MapInfoResolver);
        impl SequenceStore for Store {
            fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
                self.0.sequence(id)
            }
        }
        impl InfoResolver for Store {
            fn info(&self, id: ImageId) -> Option<ImageInfo> {
                self.1.info(id)
            }
        }
        let mut store = Store(HashMap::new(), MapInfoResolver::new());
        for base in [1, 2] {
            let info = ImageInfo {
                histogram: histogram(),
                width: 4,
                height: 4,
            };
            store.1.insert(ImageId::new(base), info);
        }
        store.0.insert(ImageId::new(10), Arc::new(widening(1)));
        store.0.insert(ImageId::new(11), Arc::new(widening(2)));
        store
            .0
            .insert(ImageId::new(12), Arc::new(non_widening(1, 2)));
        let s = BwmStructure::build(
            [ImageId::new(1), ImageId::new(2), ImageId::new(3)],
            [ImageId::new(10), ImageId::new(11), ImageId::new(12)],
            &store,
        );
        assert_eq!(s.cluster_count(), 2, "#3 does not resolve");
        assert_eq!(s.classified_count(), 2);
        assert_eq!(s.unclassified_count(), 1);
        let base = store.1.info(ImageId::new(1)).unwrap().histogram;
        assert!(Arc::ptr_eq(
            s.base_histogram(ImageId::new(1)).unwrap(),
            &base
        ));
    }

    #[test]
    fn remove_edited_and_binary() {
        let mut s = BwmStructure::new();
        let base = ImageId::new(1);
        s.insert_binary(base, histogram());
        s.insert_binary(ImageId::new(2), histogram());
        s.insert_edited(ImageId::new(10), &widening(1));
        s.insert_edited(ImageId::new(11), &non_widening(1, 2));
        s.insert_edited(ImageId::new(12), &widening(1));
        s.insert_edited(ImageId::new(20), &widening(2));
        s.remove_edited(ImageId::new(11), base);
        assert_eq!(s.unclassified_count(), 0);
        s.remove_edited(ImageId::new(12), base);
        assert_eq!(s.cluster_of(base).unwrap(), &[ImageId::new(10)]);
        // Only the named base's cluster is searched.
        s.remove_edited(ImageId::new(20), base);
        assert_eq!(s.cluster_of(ImageId::new(2)).unwrap(), &[ImageId::new(20)]);
        s.remove_edited(ImageId::new(10), base);
        s.remove_binary(base);
        assert_eq!(s.cluster_count(), 1);
        assert_eq!((s.base_totals(), s.base_counts(0).len()), (&[16][..], 1));
        // Removing something unknown is a no-op.
        s.remove_binary(ImageId::new(77));
        s.remove_edited(ImageId::new(78), ImageId::new(77));
        assert_eq!(s.classified_count(), 1);
    }

    /// A program is found from its base and kept where a scan keeps it: a
    /// clustered image's in its cluster's block, which a change of members
    /// drops, an unclassified one's in its entry. Clones keep them.
    #[test]
    fn program_cells_are_found_from_the_base_and_kept_by_clones() {
        let mut s = BwmStructure::new();
        s.insert_binary(ImageId::new(1), histogram());
        s.insert_binary(ImageId::new(2), histogram());
        s.insert_edited(ImageId::new(10), &widening(1));
        s.insert_edited(ImageId::new(11), &non_widening(1, 2));
        let (clustered, loose) = (ImageId::new(10), ImageId::new(11));
        let mut resolver = MapInfoResolver::new();
        for base in [1, 2] {
            let info = ImageInfo {
                histogram: histogram(),
                width: 4,
                height: 4,
            };
            resolver.insert(ImageId::new(base), info);
        }
        let store: HashMap<ImageId, Arc<EditSequence>> = [
            (clustered, Arc::new(widening(1))),
            (loose, Arc::new(non_widening(1, 2))),
            (ImageId::new(12), Arc::new(widening(1))),
        ]
        .into();
        let quantizer = RgbQuantizer::default_64();
        let engine = RuleEngine::new(&quantizer, mmdb_rules::RuleProfile::Conservative);
        let program = |s: &BwmStructure, id, base| {
            s.program(id, ImageId::new(base), &store, &engine, &resolver)
                .map(ProgramRef::to_program)
        };
        assert!(matches!(
            program(&s, clustered, 2),
            Err(RuleError::UnknownImage(id)) if id == clustered
        ));
        for id in [clustered, loose] {
            assert!(!s.holds_program(id, ImageId::new(1)));
            let fresh = engine.compile(&store[&id], &resolver).unwrap();
            assert_eq!(program(&s, id, 1).unwrap(), fresh);
            assert!(s.holds_program(id, ImageId::new(1)));
        }
        let copy = s.clone();
        assert!(copy.holds_program(clustered, ImageId::new(1)));
        assert!(copy.holds_program(loose, ImageId::new(1)));
        assert_eq!(copy, s);
        s.insert_edited(ImageId::new(12), &widening(1));
        assert!(!s.holds_program(clustered, ImageId::new(1)), "a new member");
        assert!(s.holds_program(loose, ImageId::new(1)));
        let kept = program(&s, ImageId::new(12), 1).unwrap();
        assert_eq!(kept.view().base(), ImageId::new(1));
        assert!(s.holds_program(clustered, ImageId::new(1)), "one block");
        s.remove_edited(ImageId::new(12), ImageId::new(1));
        assert!(
            !s.holds_program(clustered, ImageId::new(1)),
            "a member gone"
        );
    }

    /// The count columns follow inserts and removals in base-id order, and
    /// absorbing another structure interleaves its bases as a build over
    /// both would.
    #[test]
    fn base_counts_are_columns_in_base_order() {
        // Sixteen pixels, `n` of them in bin 0.
        let hist = |n: u64| {
            let mut counts = vec![0; 64];
            (counts[0], counts[1]) = (n, 16 - n);
            Arc::new(ColorHistogram::from_counts(counts, 16))
        };
        let red = 0;
        let mut s = BwmStructure::new();
        assert_eq!(s.base_counts(red), &[] as &[u32]);
        for (id, n) in [(5, 8), (1, 4), (3, 12)] {
            s.insert_binary(ImageId::new(id), hist(n));
        }
        assert_eq!(s.base_counts(red), &[4, 12, 8]);
        assert_eq!(s.base_totals(), &[16, 16, 16]);
        let mut other = BwmStructure::new();
        for (id, n) in [(2, 16), (6, 0)] {
            other.insert_binary(ImageId::new(id), hist(n));
        }
        let mut both = BwmStructure::new();
        for (id, n) in [(1, 4), (2, 16), (3, 12), (5, 8), (6, 0)] {
            both.insert_binary(ImageId::new(id), hist(n));
        }
        s.absorb(other);
        assert_eq!(s, both);
        assert_eq!(s.base_counts(red), &[4, 16, 12, 8, 0]);
        s.remove_binary(ImageId::new(3));
        assert_eq!(s.base_counts(red), &[4, 16, 8, 0]);
        let order: Vec<u64> = s.clusters().map(|(b, _)| b.raw()).collect();
        assert_eq!(order, [1, 2, 5, 6]);
    }

    /// A base of 2³² pixels or more has no 32-bit count: its column reads
    /// `u32::MAX`, and the base test reads its histogram.
    #[test]
    fn a_base_past_32_bits_is_tested_from_its_histogram() {
        let (big, small) = (ImageId::new(1), ImageId::new(2));
        let mut s = BwmStructure::new();
        let total = 1u64 << 33;
        let mut counts = vec![0; 64];
        (counts[0], counts[1]) = (total / 4 * 3, total / 4);
        s.insert_binary(big, Arc::new(ColorHistogram::from_counts(counts, total)));
        s.insert_binary(small, histogram());
        assert_eq!(s.base_counts(0)[0], u32::MAX);
        assert_eq!(s.base_count(0, 0, s.base_counts(0)), total / 4 * 3);
        assert_eq!(s.base_count(0, 1, s.base_counts(1)), total / 4);
        let quantizer = RgbQuantizer::default_64();
        let engine = RuleEngine::new(&quantizer, mmdb_rules::RuleProfile::Conservative);
        let (resolver, store) = (MapInfoResolver::new(), HashMap::new());
        let query = mmdb_rules::ColorRangeQuery::new(0, 0.7, 0.8);
        let mut ctx = crate::QueryCtx::default();
        let method = crate::Method::Bwm;
        crate::execute(method, &s, &query, &engine, &resolver, &store, &mut ctx).unwrap();
        assert_eq!(
            ctx.results,
            [big],
            "three quarters of its pixels are in bin 0"
        );
    }

    #[test]
    fn empty_sequence_is_main_eligible() {
        let mut s = BwmStructure::new();
        s.insert_binary(ImageId::new(1), histogram());
        let seq = EditSequence::new(ImageId::new(1), vec![]);
        assert_eq!(
            s.insert_edited(ImageId::new(2), &seq),
            Some(Classification::Main)
        );
    }
}
