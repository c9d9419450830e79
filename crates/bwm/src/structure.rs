//! The proposed data structure (§4.1) and its insertion algorithm (Fig. 1).

use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::ColorHistogram;
use mmdb_rules::{BoundProgram, InfoResolver, RuleEngine, RuleError};
use mmdb_telemetry::counter;
use std::borrow::Cow;
use std::collections::BTreeMap;
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
    /// database is built from — and a store that is a lock guard over those
    /// programs lends them.
    ///
    /// # Errors
    /// [`RuleError::UnknownImage`] when `id` has no stored sequence, or
    /// whatever compilation reports.
    fn program(
        &self,
        id: ImageId,
        engine: &RuleEngine<'_>,
        resolver: &dyn InfoResolver,
    ) -> Result<Cow<'_, BoundProgram>, RuleError> {
        let sequence = self.sequence(id).ok_or(RuleError::UnknownImage(id))?;
        engine.compile(&sequence, resolver).map(Cow::Owned)
    }
}

impl SequenceStore for std::collections::HashMap<ImageId, Arc<EditSequence>> {
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        self.get(&id).cloned()
    }
}

/// The program a Figure 1 cell keeps for edited image `id`, on first use
/// `id`'s sequence in `store` compiled by `engine`: the one way a scan or
/// the storage engine reaches a kept program.
///
/// # Errors
/// [`RuleError::UnknownImage`] when `store` lacks `id`, or a compile error.
pub fn kept_program<'c, S: SequenceStore + ?Sized>(
    cell: &'c OnceLock<BoundProgram>,
    id: ImageId,
    store: &S,
    engine: &RuleEngine<'_>,
    resolver: &dyn InfoResolver,
) -> Result<&'c BoundProgram, RuleError> {
    if let Some(program) = cell.get() {
        return Ok(program);
    }
    let sequence = store.sequence(id).ok_or(RuleError::UnknownImage(id))?;
    let program = engine.compile(&sequence, resolver)?;
    Ok(cell.get_or_init(|| program))
}

/// One element `<B_id, E_list>` of the Main Component, carrying what
/// Figure 2 reads of it: the base's exact histogram (the catalog's own,
/// shared) and, beside each clustered id, its sequence compiled for BOUNDS
/// by the first scan that walks it. Nothing a program holds can change
/// while its image is stored, so a filled cell is never invalidated.
#[derive(Clone, Debug)]
pub(crate) struct Cluster {
    pub(crate) histogram: Arc<ColorHistogram>,
    /// `E_list`, ascending.
    pub(crate) ids: Vec<ImageId>,
    /// `programs[i]` belongs to `ids[i]`.
    pub(crate) programs: Vec<OnceLock<BoundProgram>>,
}

/// One entry of the Unclassified Component: an edited image, its base's
/// exact histogram and its program cell, as in a [`Cluster`].
#[derive(Clone, Debug)]
pub(crate) struct Loose {
    pub(crate) id: ImageId,
    pub(crate) base: Arc<ColorHistogram>,
    pub(crate) program: OnceLock<BoundProgram>,
}

/// The Main + Unclassified components of §4.1.
///
/// "Each element of the Main Component is composed of a tuple `<B_id,
/// E_list>` where `B_id` is the identifier of \[the\] referenced base image and
/// `E_list` is the list of identifiers of edited images that were created
/// from modifying `B_id`." A `BTreeMap` keeps the clusters sorted by base id
/// ("the list of identifiers should be kept sorted to make it easier to
/// search for a specific binary image"); ids stay ascending within a
/// cluster and within the Unclassified Component, so an edited image's
/// entry is one binary search away from its base.
#[derive(Clone, Debug, Default)]
pub struct BwmStructure {
    pub(crate) main: BTreeMap<ImageId, Cluster>,
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
    /// histogram.
    pub fn insert_binary(&mut self, id: ImageId, histogram: Arc<ColorHistogram>) {
        counter!("mmdb_bwm_cluster_inserts_total").inc();
        self.main.entry(id).or_insert_with(|| Cluster {
            histogram,
            ids: Vec::new(),
            programs: Vec::new(),
        });
    }

    /// Fig. 1 for an edited image: all operations bound-widening → into
    /// the base's cluster in Main, otherwise into Unclassified. Returns the
    /// classification, or `None` — inserting nothing — when the base has
    /// no cluster here.
    pub fn insert_edited(
        &mut self,
        id: ImageId,
        sequence: &EditSequence,
    ) -> Option<Classification> {
        let cluster = self.main.get_mut(&sequence.base)?;
        if sequence.all_bound_widening() {
            counter!(r#"mmdb_bwm_edited_inserts_total{component="classified"}"#).inc();
            let at = cluster.ids.partition_point(|&e| e < id);
            cluster.ids.insert(at, id);
            cluster.programs.insert(at, OnceLock::new());
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
    /// structure over other base images (another shard's), keeping the
    /// merged Unclassified Component ascending — what
    /// [`BwmStructure::build`] over both catalogs yields.
    pub fn absorb(&mut self, other: BwmStructure) {
        self.main.extend(other.main);
        self.unclassified.extend(other.unclassified);
        self.unclassified.sort_unstable_by_key(|e| e.id);
    }

    /// Removes a binary image and its cluster. The storage engine deletes
    /// only an image no stored sequence names, so the cluster is empty.
    /// Unknown ids are a no-op.
    pub fn remove_binary(&mut self, id: ImageId) {
        counter!("mmdb_bwm_removals_total").inc();
        self.main.remove(&id);
    }

    /// Removes an edited image derived from `base`. An edited image is
    /// either in its base's cluster or unclassified, so this looks at that
    /// one cluster and the Unclassified Component — never at other
    /// clusters. Unknown ids are a no-op.
    pub fn remove_edited(&mut self, id: ImageId, base: ImageId) {
        counter!("mmdb_bwm_removals_total").inc();
        match self.locate(id, base) {
            Some((Classification::Main, at)) => {
                let cluster = self.main.get_mut(&base).expect("located above");
                cluster.ids.remove(at);
                cluster.programs.remove(at);
            }
            Some((Classification::Unclassified, at)) => {
                self.unclassified.remove(at);
            }
            None => {}
        }
    }

    /// Where edited image `id`, derived from `base`, sits: in its base's
    /// cluster or in the Unclassified Component, at which index.
    fn locate(&self, id: ImageId, base: ImageId) -> Option<(Classification, usize)> {
        let clustered = self.main.get(&base).map(|c| c.ids.binary_search(&id));
        if let Some(Ok(at)) = clustered {
            return Some((Classification::Main, at));
        }
        let loose = self.unclassified.binary_search_by_key(&id, |e| e.id);
        loose.ok().map(|at| (Classification::Unclassified, at))
    }

    /// The classification of an edited image derived from `base`, or
    /// `None` if untracked.
    pub fn classification(&self, id: ImageId, base: ImageId) -> Option<Classification> {
        self.locate(id, base)
            .map(|(classification, _)| classification)
    }

    /// The cell that keeps edited image `id`'s BOUNDS program — `id` derived
    /// from `base` — or `None` if untracked. Empty until someone compiles
    /// the program and fills it in.
    pub fn program_cell(&self, id: ImageId, base: ImageId) -> Option<&OnceLock<BoundProgram>> {
        Some(match self.locate(id, base)? {
            (Classification::Main, at) => &self.main[&base].programs[at],
            (Classification::Unclassified, at) => &self.unclassified[at].program,
        })
    }

    /// Iterates `(base, edited-cluster)` in ascending base-id order.
    pub fn clusters(&self) -> impl Iterator<Item = (ImageId, &[ImageId])> + '_ {
        self.main.iter().map(|(&b, c)| (b, c.ids.as_slice()))
    }

    /// The cluster for one base image.
    pub fn cluster_of(&self, base: ImageId) -> Option<&[ImageId]> {
        self.main.get(&base).map(|c| c.ids.as_slice())
    }

    /// The exact histogram the cluster of `base` tests queries against.
    pub fn base_histogram(&self, base: ImageId) -> Option<&Arc<ColorHistogram>> {
        self.main.get(&base).map(|c| &c.histogram)
    }

    /// The Unclassified Component, ascending.
    pub fn unclassified(&self) -> impl ExactSizeIterator<Item = &ImageId> + '_ {
        self.unclassified.iter().map(|e| &e.id)
    }

    /// Number of Main-Component clusters (= tracked binary images).
    pub fn cluster_count(&self) -> usize {
        self.main.len()
    }

    /// Number of edited images in the Main Component.
    pub fn classified_count(&self) -> usize {
        self.main.values().map(|c| c.ids.len()).sum()
    }

    /// Number of edited images in the Unclassified Component.
    pub fn unclassified_count(&self) -> usize {
        self.unclassified.len()
    }
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
        assert_eq!(s.main[&base].programs.len(), 1, "cells move with ids");
        // Only the named base's cluster is searched.
        s.remove_edited(ImageId::new(20), base);
        assert_eq!(s.cluster_of(ImageId::new(2)).unwrap(), &[ImageId::new(20)]);
        s.remove_edited(ImageId::new(10), base);
        s.remove_binary(base);
        assert_eq!(s.cluster_count(), 1);
        // Removing something unknown is a no-op.
        s.remove_binary(ImageId::new(77));
        s.remove_edited(ImageId::new(78), ImageId::new(77));
        assert_eq!(s.classified_count(), 1);
    }

    #[test]
    fn program_cells_are_found_from_the_base_and_kept_by_clones() {
        let mut s = BwmStructure::new();
        s.insert_binary(ImageId::new(1), histogram());
        s.insert_binary(ImageId::new(2), histogram());
        s.insert_edited(ImageId::new(10), &widening(1));
        s.insert_edited(ImageId::new(11), &non_widening(1, 2));
        let (clustered, loose) = (ImageId::new(10), ImageId::new(11));
        assert!(s.program_cell(clustered, ImageId::new(2)).is_none());
        let mut resolver = MapInfoResolver::new();
        for base in [1, 2] {
            let info = ImageInfo {
                histogram: histogram(),
                width: 4,
                height: 4,
            };
            resolver.insert(ImageId::new(base), info);
        }
        let quantizer = RgbQuantizer::default_64();
        let engine = RuleEngine::new(&quantizer, mmdb_rules::RuleProfile::Conservative);
        for (id, seq) in [(clustered, widening(1)), (loose, non_widening(1, 2))] {
            let cell = s.program_cell(id, ImageId::new(1)).unwrap();
            assert!(cell.get().is_none());
            cell.set(engine.compile(&seq, &resolver).unwrap()).unwrap();
        }
        let copy = s.clone();
        for id in [clustered, loose] {
            let cell = copy.program_cell(id, ImageId::new(1)).unwrap();
            assert_eq!(cell.get().map(BoundProgram::base), Some(ImageId::new(1)));
        }
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
