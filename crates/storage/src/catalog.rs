//! The object catalog: one entry per image, binary or edited, plus the
//! base→derived provenance links and the persisted form of both.

use crate::blobstore::BlobRef;
use crate::error::StorageError;
use crate::Result;
use mmdb_editops::codec::{self as seq_codec, Reader};
use mmdb_editops::{EditOp, EditSequence, ImageId};
use mmdb_histogram::ColorHistogram;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"MMDBCAT1";

/// How an image object is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredKind {
    /// Conventional binary raster in the blob store.
    Binary,
    /// Sequence of editing operations referencing a base image.
    Edited,
}

/// Catalog payload for one image.
#[derive(Clone, Debug)]
pub enum CatalogEntry {
    /// A conventionally stored image: blob location, dimensions, and the
    /// exact histogram extracted at insert time (§3.1).
    Binary {
        /// Location of the PPM-encoded raster in the blob store.
        blob: BlobRef,
        /// Raster width.
        width: u32,
        /// Raster height.
        height: u32,
        /// Exact color histogram.
        histogram: Arc<ColorHistogram>,
    },
    /// An image stored as editing operations (§2). Its BOUNDS program is
    /// kept in its Figure 1 entry, not here.
    Edited {
        /// The stored sequence.
        sequence: Arc<EditSequence>,
    },
}

impl CatalogEntry {
    /// An edited-image entry.
    pub fn edited(sequence: Arc<EditSequence>) -> Self {
        CatalogEntry::Edited { sequence }
    }

    /// The storage kind of this entry.
    pub fn kind(&self) -> StoredKind {
        match self {
            CatalogEntry::Binary { .. } => StoredKind::Binary,
            CatalogEntry::Edited { .. } => StoredKind::Edited,
        }
    }
}

/// The congruence class of `id` among `classes` strided allocators:
/// `(id - 1) % classes`. A catalog configured with
/// [`Catalog::set_stride`]`(phase, classes)` only allocates ids of class
/// `phase`, so this is the one routing rule of a sharded deployment — the
/// facade's shard lookup and [`Catalog::check_refs`] both call it.
pub fn id_class(id: ImageId, classes: usize) -> usize {
    (id.raw().wrapping_sub(1) % classes as u64) as usize
}

/// The in-memory catalog. Thread safety is provided by the engine's lock.
#[derive(Debug)]
pub struct Catalog {
    quantizer_desc: String,
    next_id: u64,
    /// Strided allocation for sharded deployments: this catalog only hands
    /// out ids with `(raw - 1) % stride == phase`, so N shards configured
    /// with stride N and phases 0..N draw from disjoint id spaces without
    /// coordination. Runtime configuration (not persisted): the owning
    /// engine re-applies it after open, realigning `next_id` upward.
    stride: u64,
    phase: u64,
    entries: BTreeMap<ImageId, CatalogEntry>,
    /// base id → edited images derived from it (insertion order).
    children: HashMap<ImageId, Vec<ImageId>>,
    /// merge target id → how many stored edited images paste into it,
    /// leaving out its own variants (`children` holds those), so that
    /// [`Catalog::referrers`] is O(1).
    pasted_into: HashMap<ImageId, usize>,
}

/// The distinct merge targets of `sequence` other than its base — what it
/// names beyond its `children` link. Empty, and free, for a sequence without
/// a `Merge` into a target.
fn extra_targets(sequence: &EditSequence) -> impl Iterator<Item = ImageId> + '_ {
    let targets = || sequence.ops.iter().filter_map(EditOp::merge_target);
    targets()
        .enumerate()
        .filter(move |&(i, t)| t != sequence.base && !targets().take(i).any(|u| u == t))
        .map(|(_, t)| t)
}

impl Catalog {
    /// Creates an empty catalog recording the quantizer it was built with.
    pub fn new(quantizer_desc: String) -> Self {
        Catalog {
            quantizer_desc,
            next_id: 1,
            stride: 1,
            phase: 0,
            entries: BTreeMap::new(),
            children: HashMap::new(),
            pasted_into: HashMap::new(),
        }
    }

    /// The quantizer description recorded at creation.
    pub fn quantizer_desc(&self) -> &str {
        &self.quantizer_desc
    }

    /// Smallest candidate ≥ `n` in this catalog's congruence class.
    fn align_up(&self, n: u64) -> u64 {
        let n = n.max(1);
        let r = (n - 1) % self.stride;
        n + (self.phase + self.stride - r) % self.stride
    }

    /// Restricts allocation to the congruence class `(id - 1) % stride ==
    /// phase`, advancing `next_id` to the next id in class. Ids already
    /// cataloged are untouched — only future allocations are constrained.
    ///
    /// # Panics
    /// Panics when `stride == 0` or `phase >= stride`.
    pub fn set_stride(&mut self, phase: u64, stride: u64) {
        assert!(stride > 0, "id stride must be positive");
        assert!(
            phase < stride,
            "id phase {phase} out of range for stride {stride}"
        );
        self.stride = stride;
        self.phase = phase;
        self.next_id = self.align_up(self.next_id);
    }

    /// The configured `(phase, stride)` of the id allocator.
    pub fn id_stride(&self) -> (u64, u64) {
        (self.phase, self.stride)
    }

    /// Allocates a fresh image id (the next id in this catalog's
    /// congruence class).
    pub fn allocate_id(&mut self) -> ImageId {
        let raw = self.align_up(self.next_id);
        self.next_id = raw + self.stride;
        ImageId::new(raw)
    }

    /// Advances the allocator past an explicitly supplied id. WAL replay
    /// inserts records carrying the ids the original run allocated; this
    /// keeps post-recovery allocations from colliding with them (gaps from
    /// ids that were allocated but never acknowledged are fine).
    /// `allocate_id` re-aligns to the congruence class, so an off-class id
    /// here never derails strided allocation.
    pub fn note_allocated(&mut self, id: ImageId) {
        self.next_id = self.next_id.max(id.raw() + 1);
    }

    /// Number of cataloged objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no object is cataloged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an entry under `id`. The reference rule is the caller's
    /// ([`Catalog::check_refs`]).
    ///
    /// # Panics
    /// Panics when `id` is already cataloged (ids come from
    /// [`Catalog::allocate_id`], so a collision is an engine bug).
    pub fn insert(&mut self, id: ImageId, entry: CatalogEntry) {
        if let CatalogEntry::Edited { sequence, .. } = &entry {
            self.children.entry(sequence.base).or_default().push(id);
            for target in extra_targets(sequence) {
                *self.pasted_into.entry(target).or_default() += 1;
            }
        }
        let prev = self.entries.insert(id, entry);
        assert!(prev.is_none(), "duplicate catalog id {id}");
    }

    /// The blob reference of every binary image, ascending by id, for
    /// compaction to relocate in place.
    pub(crate) fn blobs_mut(&mut self) -> impl Iterator<Item = &mut BlobRef> + '_ {
        self.entries.values_mut().filter_map(|entry| match entry {
            CatalogEntry::Binary { blob, .. } => Some(blob),
            CatalogEntry::Edited { .. } => None,
        })
    }

    /// Looks up an entry.
    pub fn get(&self, id: ImageId) -> Option<&CatalogEntry> {
        self.entries.get(&id)
    }

    /// The reference rule for storing `sequence`: everything it names — the
    /// base, so Figure 1 clusters it under the base's histogram, and every
    /// merge target, so a scan resolves it under this shard's lock alone —
    /// is a cataloged binary image in this catalog's id class. Every path
    /// that adds an edited image checks it: ingest, WAL replay and snapshot
    /// decode.
    pub fn check_refs(&self, sequence: &EditSequence) -> Result<()> {
        let targets = sequence.ops.iter().filter_map(EditOp::merge_target);
        let refs =
            std::iter::once(("base", sequence.base)).chain(targets.map(|t| ("merge target", t)));
        for (role, rid) in refs {
            let reason = if id_class(rid, self.stride as usize) != self.phase as usize {
                format!("{role} must be stored on this shard")
            } else {
                match self.get(rid).map(CatalogEntry::kind) {
                    Some(StoredKind::Binary) => continue,
                    Some(StoredKind::Edited) => format!("{role} must be a binary image"),
                    None => format!("{role} does not exist"),
                }
            };
            return Err(StorageError::InvalidReference { id: rid, reason });
        }
        Ok(())
    }

    /// The rule for deleting `id`: it is cataloged, and no stored edited
    /// image names it ([`Catalog::referrers`], O(1)). Ids are never reused,
    /// so an image that passes stays answerable for as long as it is stored.
    pub fn check_delete(&self, id: ImageId) -> Result<()> {
        if self.get(id).is_none() {
            return Err(StorageError::NotFound(id));
        }
        match self.referrers(id) {
            0 => Ok(()),
            dependents => Err(StorageError::StillReferenced { id, dependents }),
        }
    }

    /// Removes an entry, unlinking provenance and references. Returns the
    /// removed payload. The reference rule is the caller's
    /// ([`Catalog::check_delete`]).
    pub fn remove(&mut self, id: ImageId) -> Option<CatalogEntry> {
        let entry = self.entries.remove(&id)?;
        if let CatalogEntry::Edited { sequence, .. } = &entry {
            if let Some(kids) = self.children.get_mut(&sequence.base) {
                kids.retain(|&k| k != id);
                if kids.is_empty() {
                    self.children.remove(&sequence.base);
                }
            }
            for target in extra_targets(sequence) {
                if let Some(count) = self.pasted_into.get_mut(&target) {
                    *count -= 1;
                    if *count == 0 {
                        self.pasted_into.remove(&target);
                    }
                }
            }
        }
        Some(entry)
    }

    /// Edited images derived from `base` (the paper's x → op(x) connection).
    pub fn children_of(&self, base: ImageId) -> &[ImageId] {
        self.children.get(&base).map_or(&[], Vec::as_slice)
    }

    /// How many stored edited images name `id` as their base or as a merge
    /// target — an image naming it both ways counts once. O(1).
    pub fn referrers(&self, id: ImageId) -> usize {
        self.children_of(id).len() + self.pasted_into.get(&id).copied().unwrap_or(0)
    }

    /// The base image of an edited image, or `None` for binary images and
    /// unknown ids.
    pub fn base_of(&self, id: ImageId) -> Option<ImageId> {
        match self.entries.get(&id)? {
            CatalogEntry::Edited { sequence, .. } => Some(sequence.base),
            CatalogEntry::Binary { .. } => None,
        }
    }

    /// All ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = ImageId> + '_ {
        self.entries.keys().copied()
    }

    /// Iterates `(id, entry)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ImageId, &CatalogEntry)> + '_ {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Serializes the catalog plus the blob store's free list.
    pub fn encode(&self, free_list: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024 + self.entries.len() * 128);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.quantizer_desc.len() as u16).to_le_bytes());
        buf.extend_from_slice(self.quantizer_desc.as_bytes());
        buf.extend_from_slice(&self.next_id.to_le_bytes());
        buf.extend_from_slice(&(free_list.len() as u32).to_le_bytes());
        for &(off, len) in free_list {
            buf.extend_from_slice(&off.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (id, entry) in &self.entries {
            buf.extend_from_slice(&id.raw().to_le_bytes());
            match entry {
                CatalogEntry::Binary {
                    blob,
                    width,
                    height,
                    histogram,
                } => {
                    buf.push(0);
                    buf.extend_from_slice(&blob.offset.to_le_bytes());
                    buf.extend_from_slice(&blob.len.to_le_bytes());
                    buf.extend_from_slice(&width.to_le_bytes());
                    buf.extend_from_slice(&height.to_le_bytes());
                    buf.extend_from_slice(&(histogram.bin_count() as u32).to_le_bytes());
                    for &c in histogram.counts() {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
                CatalogEntry::Edited { sequence, .. } => {
                    buf.push(1);
                    let bytes = seq_codec::encode(sequence);
                    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&bytes);
                }
            }
        }
        buf
    }

    /// Deserializes a catalog, returning it along with the persisted blob
    /// free list.
    pub fn decode(bytes: &[u8]) -> Result<(Catalog, Vec<(u64, u64)>)> {
        let mut r = Reader::new(bytes, "catalog");
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(StorageError::Corrupt(format!("bad magic {magic:?}")));
        }
        let qlen = r.u16("quantizer length")? as usize;
        let qdesc = String::from_utf8(r.take(qlen, "quantizer description")?.to_vec())
            .map_err(|_| StorageError::Corrupt("non-UTF8 quantizer description".into()))?;
        let next_id = r.u64("next id")?;
        let free_count = r.u32("free-list length")? as usize;
        // Bound the allocation by what the input can hold (16 bytes each).
        let mut free_list = Vec::with_capacity(free_count.min(r.remaining() / 16));
        for _ in 0..free_count {
            free_list.push((r.u64("free-list offset")?, r.u64("free-list length")?));
        }
        let count = r.u32("entry count")? as usize;
        let mut catalog = Catalog::new(qdesc);
        catalog.next_id = next_id;
        let mut last = None;
        for _ in 0..count {
            let id = ImageId::new(r.u64("entry id")?);
            // `encode` writes ascending ids, so a repeat is the first id
            // not above its predecessor.
            if last >= Some(id) {
                return Err(StorageError::Corrupt(format!(
                    "duplicate or out-of-order catalog id {id}"
                )));
            }
            last = Some(id);
            let entry = match r.u8("entry tag")? {
                0 => {
                    let blob = BlobRef {
                        offset: r.u64("blob offset")?,
                        len: r.u64("blob length")?,
                    };
                    let width = r.u32("width")?;
                    let height = r.u32("height")?;
                    let bins = r.u32("histogram bin count")? as usize;
                    let mut counts = Vec::with_capacity(bins.min(r.remaining() / 8));
                    for _ in 0..bins {
                        counts.push(r.u64("histogram bins")?);
                    }
                    let total: u64 = counts.iter().sum();
                    if total != width as u64 * height as u64 {
                        return Err(StorageError::Corrupt(format!(
                            "histogram of {id} sums to {total}, expected {}",
                            width as u64 * height as u64
                        )));
                    }
                    CatalogEntry::Binary {
                        blob,
                        width,
                        height,
                        histogram: Arc::new(ColorHistogram::from_counts(counts, total)),
                    }
                }
                1 => {
                    let len = r.u32("sequence length")? as usize;
                    let seq = seq_codec::decode(r.take(len, "sequence bytes")?).map_err(|e| {
                        StorageError::Corrupt(format!("bad edit sequence for {id}: {e}"))
                    })?;
                    // Entries come in ascending id order and a referenced
                    // image is always older than its referrer.
                    catalog
                        .check_refs(&seq)
                        .map_err(|e| StorageError::Corrupt(format!("catalog entry {id}: {e}")))?;
                    CatalogEntry::edited(Arc::new(seq))
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unknown entry tag {other} for {id}"
                    )))
                }
            };
            catalog.insert(id, entry);
        }
        Ok((catalog, free_list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::{Quantizer, RgbQuantizer};
    use mmdb_imaging::{RasterImage, Rgb};

    fn binary_entry(img: &RasterImage, off: u64) -> CatalogEntry {
        let q = RgbQuantizer::default_64();
        CatalogEntry::Binary {
            blob: BlobRef {
                offset: off,
                len: 10,
            },
            width: img.width(),
            height: img.height(),
            histogram: Arc::new(ColorHistogram::extract(img, &q)),
        }
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new(RgbQuantizer::default_64().describe());
        let img = RasterImage::filled(4, 4, Rgb::RED).unwrap();
        let b1 = c.allocate_id();
        c.insert(b1, binary_entry(&img, 0));
        let b2 = c.allocate_id();
        c.insert(b2, binary_entry(&img, 100));
        let e1 = c.allocate_id();
        c.insert(
            e1,
            CatalogEntry::edited(Arc::new(
                EditSequence::builder(b1)
                    .modify(Rgb::RED, Rgb::BLUE)
                    .build(),
            )),
        );
        let e2 = c.allocate_id();
        c.insert(
            e2,
            CatalogEntry::edited(Arc::new(EditSequence::builder(b1).blur().build())),
        );
        c
    }

    #[test]
    fn ids_are_sequential_and_children_tracked() {
        let c = sample_catalog();
        assert_eq!(c.len(), 4);
        let b1 = ImageId::new(1);
        assert_eq!(c.children_of(b1), &[ImageId::new(3), ImageId::new(4)]);
        assert_eq!(c.children_of(ImageId::new(2)), &[] as &[ImageId]);
        assert_eq!(c.base_of(ImageId::new(3)), Some(b1));
        assert_eq!(c.base_of(b1), None);
        assert_eq!(c.base_of(ImageId::new(99)), None);
    }

    #[test]
    fn remove_unlinks_children() {
        let mut c = sample_catalog();
        assert!(c.remove(ImageId::new(3)).is_some());
        assert_eq!(c.children_of(ImageId::new(1)), &[ImageId::new(4)]);
        assert!(c.remove(ImageId::new(3)).is_none());
        assert!(c.remove(ImageId::new(4)).is_some());
        assert!(c.children_of(ImageId::new(1)).is_empty());
    }

    #[test]
    fn referrers_count_each_naming_image_once() {
        let mut c = sample_catalog();
        let (b1, b2) = (ImageId::new(1), ImageId::new(2));
        assert_eq!((c.referrers(b1), c.referrers(b2)), (2, 0));
        // Pastes into b2 twice and into its own base once.
        let e3 = c.allocate_id();
        c.insert(
            e3,
            CatalogEntry::edited(Arc::new(
                EditSequence::builder(b1)
                    .define(mmdb_imaging::Rect::new(0, 0, 2, 2))
                    .merge_into(b2, 0, 0)
                    .merge_into(b1, 0, 0)
                    .merge_into(b2, 1, 1)
                    .build(),
            )),
        );
        assert_eq!((c.referrers(b1), c.referrers(b2)), (3, 1));
        assert!(
            c.children_of(b2).is_empty(),
            "children are a base's variants"
        );
        let (back, _) = Catalog::decode(&c.encode(&[])).unwrap();
        assert_eq!((back.referrers(b1), back.referrers(b2)), (3, 1));
        c.remove(e3);
        assert_eq!((c.referrers(b1), c.referrers(b2)), (2, 0));
        c.remove(ImageId::new(3));
        c.remove(ImageId::new(4));
        assert_eq!(c.referrers(b1), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = sample_catalog();
        let free = vec![(64, 32), (256, 128)];
        let bytes = c.encode(&free);
        let (c2, free2) = Catalog::decode(&bytes).unwrap();
        assert_eq!(free2, free);
        assert_eq!(c2.quantizer_desc(), c.quantizer_desc());
        assert_eq!(c2.len(), c.len());
        assert_eq!(
            c2.children_of(ImageId::new(1)),
            c.children_of(ImageId::new(1))
        );
        // Allocation continues after the persisted next_id.
        let mut c2 = c2;
        assert_eq!(c2.allocate_id(), ImageId::new(5));
        // Entries compare structurally.
        match (
            c2.get(ImageId::new(1)).unwrap(),
            c.get(ImageId::new(1)).unwrap(),
        ) {
            (
                CatalogEntry::Binary {
                    blob: b2,
                    histogram: h2,
                    ..
                },
                CatalogEntry::Binary {
                    blob: b1,
                    histogram: h1,
                    ..
                },
            ) => {
                assert_eq!(b1, b2);
                assert_eq!(h1.counts(), h2.counts());
            }
            _ => panic!("entry 1 should be binary"),
        }
        match c2.get(ImageId::new(3)).unwrap() {
            CatalogEntry::Edited { sequence, .. } => {
                assert_eq!(sequence.base, ImageId::new(1));
                assert_eq!(sequence.len(), 1);
            }
            _ => panic!("entry 3 should be edited"),
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let c = sample_catalog();
        let bytes = c.encode(&[(40, 8)]);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Catalog::decode(&bad).is_err());
        // Truncation at every byte must error, never panic.
        for cut in 0..bytes.len() {
            assert!(Catalog::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_inconsistent_histogram() {
        let c = sample_catalog();
        let mut bytes = c.encode(&[]);
        // Find the first histogram count (entry 1 is binary): corrupt one
        // count so the sum no longer matches width*height. The layout is
        // deterministic; flip a byte late in the first binary entry.
        // Safer approach: decode-encode to find offset is overkill — instead
        // bump the declared width of entry 1.
        // Offset: magic(8)+qlen(2)+desc+next(8)+freecount(4)+entrycount(4)+id(8)+tag(1)+blob(16) → width.
        let qlen = c.quantizer_desc().len();
        let width_off = 8 + 2 + qlen + 8 + 4 + 4 + 8 + 1 + 16;
        bytes[width_off] = bytes[width_off].wrapping_add(1);
        assert!(matches!(
            Catalog::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_a_duplicate_id() {
        let mut c = sample_catalog();
        let full = c.encode(&[]);
        c.remove(ImageId::new(4));
        let last = &full[c.encode(&[]).len()..];
        let mut bytes = full.clone();
        bytes.extend_from_slice(last);
        let count_off = 8 + 2 + c.quantizer_desc().len() + 8 + 4;
        bytes[count_off..count_off + 4].copy_from_slice(&5u32.to_le_bytes());
        match Catalog::decode(&bytes) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|(c, _)| c.len())),
        }
    }

    #[test]
    fn decode_rejects_a_dangling_reference() {
        let mut c = sample_catalog();
        let orphan = c.allocate_id();
        let missing = ImageId::new(99);
        c.insert(
            orphan,
            CatalogEntry::edited(Arc::new(EditSequence::builder(missing).blur().build())),
        );
        assert!(matches!(
            c.check_refs(&EditSequence::builder(missing).build()),
            Err(StorageError::InvalidReference { id, .. }) if id == missing
        ));
        match Catalog::decode(&c.encode(&[])) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("{orphan}")), "{msg}");
                assert!(msg.contains("does not exist"), "{msg}");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|(c, _)| c.len())),
        }
    }

    #[test]
    fn strided_allocation_stays_in_class() {
        let mut c = Catalog::new("rgb-uniform/4".into());
        c.set_stride(2, 4);
        // Class is ids ≡ 3 (mod 4): 3, 7, 11, ...
        assert_eq!(c.allocate_id(), ImageId::new(3));
        assert_eq!(c.allocate_id(), ImageId::new(7));
        // Replayed ids from other classes advance the floor; the next
        // allocation re-aligns upward into this catalog's class.
        c.note_allocated(ImageId::new(12));
        assert_eq!(c.allocate_id(), ImageId::new(15));
        // Reconfiguring (e.g. after recovery replayed with stride 1)
        // aligns the floor up, never down.
        let mut c = Catalog::new("rgb-uniform/4".into());
        assert_eq!(c.allocate_id(), ImageId::new(1));
        assert_eq!(c.allocate_id(), ImageId::new(2));
        c.set_stride(0, 4);
        assert_eq!(c.id_stride(), (0, 4));
        assert_eq!(c.allocate_id(), ImageId::new(5));
    }

    #[test]
    #[should_panic(expected = "duplicate catalog id")]
    fn duplicate_insert_panics() {
        let mut c = sample_catalog();
        let img = RasterImage::filled(2, 2, Rgb::BLUE).unwrap();
        c.insert(ImageId::new(1), binary_entry(&img, 0));
    }

    #[test]
    fn empty_catalog_roundtrip() {
        let c = Catalog::new("rgb-uniform/4".into());
        let (c2, free) = Catalog::decode(&c.encode(&[])).unwrap();
        assert!(c2.is_empty());
        assert!(free.is_empty());
    }
}
