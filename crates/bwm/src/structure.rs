//! The proposed data structure (§4.1) and its insertion algorithm (Fig. 1).

use mmdb_editops::{EditSequence, ImageId};
use mmdb_rules::{BoundProgram, InfoResolver, RuleEngine, RuleError};
use mmdb_telemetry::counter;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// store that keeps programs (the storage engine) compiles at most once
    /// per image, with the database's own quantizer and background — which
    /// is what every engine over that database is built from — and a store
    /// that is a lock guard over those programs lends them.
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

/// The Main + Unclassified components of §4.1.
///
/// "Each element of the Main Component is composed of a tuple `<B_id,
/// E_list>` where `B_id` is the identifier of \[the\] referenced base image and
/// `E_list` is the list of identifiers of edited images that were created
/// from modifying `B_id`." A `BTreeMap` keeps the clusters sorted by base id
/// ("the list of identifiers should be kept sorted to make it easier to
/// search for a specific binary image").
#[derive(Clone, Debug, Default)]
pub struct BwmStructure {
    main: BTreeMap<ImageId, Vec<ImageId>>,
    unclassified: Vec<ImageId>,
}

impl BwmStructure {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fig. 1 step for a binary image: "each time an image stored in a
    /// traditional binary format is inserted, the identifier for its
    /// corresponding histogram should be added to the Main Component" — an
    /// empty cluster keyed by the image.
    pub fn insert_binary(&mut self, id: ImageId) {
        counter!("mmdb_bwm_cluster_inserts_total").inc();
        self.main.entry(id).or_default();
    }

    /// Fig. 1 for an edited image: all operations bound-widening → append to
    /// the base's cluster in Main, otherwise append to Unclassified. Returns
    /// the classification.
    pub fn insert_edited(&mut self, id: ImageId, sequence: &EditSequence) -> Classification {
        self.insert_classified(id, sequence.base, sequence.all_bound_widening())
    }

    /// [`BwmStructure::insert_edited`] for a caller that took the verdict
    /// (`sequence.all_bound_widening()`) while it still held the sequence,
    /// and has since given the sequence away.
    pub fn insert_classified(
        &mut self,
        id: ImageId,
        base: ImageId,
        all_widening: bool,
    ) -> Classification {
        if all_widening {
            counter!(r#"mmdb_bwm_edited_inserts_total{component="classified"}"#).inc();
            self.main.entry(base).or_default().push(id);
            Classification::Main
        } else {
            counter!(r#"mmdb_bwm_edited_inserts_total{component="unclassified"}"#).inc();
            self.unclassified.push(id);
            Classification::Unclassified
        }
    }

    /// Rebuilds the structure from scratch over a set of images — used when
    /// attaching BWM to an existing database.
    pub fn build<S: SequenceStore>(
        binary_ids: impl IntoIterator<Item = ImageId>,
        edited_ids: impl IntoIterator<Item = ImageId>,
        store: &S,
    ) -> Self {
        let mut s = BwmStructure::new();
        for id in binary_ids {
            s.insert_binary(id);
        }
        for id in edited_ids {
            if let Some(seq) = store.sequence(id) {
                s.insert_edited(id, &seq);
            }
        }
        s
    }

    /// Takes over every cluster and unclassified entry of `other`, a
    /// structure over other base images (another shard's). Ids are allocated
    /// in insertion order, so the merged Unclassified Component is kept
    /// ascending — what [`BwmStructure::build`] over both catalogs yields.
    pub fn absorb(&mut self, other: BwmStructure) {
        self.main.extend(other.main);
        self.unclassified.extend(other.unclassified);
        self.unclassified.sort_unstable();
    }

    /// Removes a binary image: drops its cluster and returns the edited
    /// images that were in it, so the caller can decide what to do with
    /// them (normally they were deleted first — the storage engine enforces
    /// that). Unknown ids are a no-op.
    pub fn remove_binary(&mut self, id: ImageId) -> Vec<ImageId> {
        counter!("mmdb_bwm_removals_total").inc();
        let orphans = self.main.remove(&id).unwrap_or_default();
        counter!("mmdb_bwm_orphaned_total").add(orphans.len() as u64);
        if !orphans.is_empty() && mmdb_telemetry::instrumentation_enabled() {
            mmdb_telemetry::recorder().record(
                mmdb_telemetry::EventKind::BwmReclassified,
                format!("base {id} removed, cluster dissolved"),
                &[("orphaned", orphans.len() as u64)],
            );
        }
        orphans
    }

    /// Removes an edited image derived from `base`. An edited image is
    /// either in its base's cluster or unclassified, so this looks at that
    /// one cluster and the Unclassified Component — never at other
    /// clusters. Unknown ids are a no-op.
    pub fn remove_edited(&mut self, id: ImageId, base: ImageId) {
        counter!("mmdb_bwm_removals_total").inc();
        let list = match self.main.get_mut(&base) {
            Some(cluster) if cluster.contains(&id) => cluster,
            _ => &mut self.unclassified,
        };
        if let Some(pos) = list.iter().position(|&e| e == id) {
            list.remove(pos);
        }
    }

    /// The classification of an edited image derived from `base`, or
    /// `None` if untracked.
    pub fn classification(&self, id: ImageId, base: ImageId) -> Option<Classification> {
        if self.cluster_of(base).is_some_and(|list| list.contains(&id)) {
            Some(Classification::Main)
        } else if self.unclassified.contains(&id) {
            Some(Classification::Unclassified)
        } else {
            None
        }
    }

    /// Iterates `(base, edited-cluster)` in ascending base-id order.
    pub fn clusters(&self) -> impl Iterator<Item = (ImageId, &[ImageId])> + '_ {
        self.main.iter().map(|(&b, list)| (b, list.as_slice()))
    }

    /// The cluster for one base image.
    pub fn cluster_of(&self, base: ImageId) -> Option<&[ImageId]> {
        self.main.get(&base).map(Vec::as_slice)
    }

    /// The Unclassified Component, in insertion order.
    pub fn unclassified(&self) -> &[ImageId] {
        &self.unclassified
    }

    /// Number of Main-Component clusters (= tracked binary images).
    pub fn cluster_count(&self) -> usize {
        self.main.len()
    }

    /// Number of edited images in the Main Component.
    pub fn classified_count(&self) -> usize {
        self.main.values().map(Vec::len).sum()
    }

    /// Number of edited images in the Unclassified Component.
    pub fn unclassified_count(&self) -> usize {
        self.unclassified.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_imaging::{Rect, Rgb};
    use std::collections::HashMap;

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
        s.insert_binary(ImageId::new(1));
        s.insert_binary(ImageId::new(2));
        assert_eq!(s.cluster_count(), 2);

        let c = s.insert_edited(ImageId::new(10), &widening(1));
        assert_eq!(c, Classification::Main);
        let c = s.insert_edited(ImageId::new(11), &non_widening(1, 2));
        assert_eq!(c, Classification::Unclassified);

        assert_eq!(s.cluster_of(ImageId::new(1)).unwrap(), &[ImageId::new(10)]);
        assert_eq!(s.unclassified(), &[ImageId::new(11)]);
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
    }

    #[test]
    fn clusters_iterate_sorted_by_base() {
        let mut s = BwmStructure::new();
        for b in [5u64, 1, 3] {
            s.insert_binary(ImageId::new(b));
        }
        let order: Vec<u64> = s.clusters().map(|(b, _)| b.raw()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn build_from_store() {
        let mut seqs: HashMap<ImageId, Arc<EditSequence>> = HashMap::new();
        seqs.insert(ImageId::new(10), Arc::new(widening(1)));
        seqs.insert(ImageId::new(11), Arc::new(widening(2)));
        seqs.insert(ImageId::new(12), Arc::new(non_widening(1, 2)));
        let s = BwmStructure::build(
            [ImageId::new(1), ImageId::new(2)],
            [ImageId::new(10), ImageId::new(11), ImageId::new(12)],
            &seqs,
        );
        assert_eq!(s.cluster_count(), 2);
        assert_eq!(s.classified_count(), 2);
        assert_eq!(s.unclassified_count(), 1);
    }

    #[test]
    fn remove_edited_and_binary() {
        let mut s = BwmStructure::new();
        let base = ImageId::new(1);
        s.insert_binary(base);
        s.insert_binary(ImageId::new(2));
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
        // Removing the base returns its clustered children.
        let orphans = s.remove_binary(base);
        assert_eq!(orphans, vec![ImageId::new(10)]);
        assert_eq!(s.cluster_count(), 1);
        // Removing something unknown is a no-op.
        assert!(s.remove_binary(ImageId::new(77)).is_empty());
        s.remove_edited(ImageId::new(78), ImageId::new(77));
        assert_eq!(s.classified_count(), 1);
    }

    #[test]
    fn empty_sequence_is_main_eligible() {
        let mut s = BwmStructure::new();
        let seq = EditSequence::new(ImageId::new(1), vec![]);
        assert_eq!(s.insert_edited(ImageId::new(2), &seq), Classification::Main);
    }
}
