//! Property tests for the storage substrates: the LRU cache against a
//! reference model, blob-store allocation invariants, and catalog
//! serialization round-trips.

use mmdb_editops::{EditSequence, ImageId, Matrix3};
use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
use mmdb_imaging::{RasterImage, Rect, Rgb};
use mmdb_storage::{BlobStore, Catalog, CatalogEntry, LruCache};
use proptest::prelude::*;
use std::sync::Arc;

// ── LRU vs reference model ────────────────────────────────────────────────

#[derive(Clone, Debug)]
enum CacheOp {
    Get(u8),
    Insert(u8, u16, u8),
    Invalidate(u8),
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        any::<u8>().prop_map(CacheOp::Get),
        (any::<u8>(), any::<u16>(), 0u8..40).prop_map(|(k, v, b)| CacheOp::Insert(k, v, b)),
        any::<u8>().prop_map(CacheOp::Invalidate),
    ]
}

/// A deliberately slow but obviously correct LRU: a Vec ordered most-recent
/// first.
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u8, u16, usize)>, // key, value, bytes — MRU first
    max_entries: usize,
    max_bytes: usize,
}

impl ModelLru {
    fn get(&mut self, k: u8) -> Option<u16> {
        let pos = self.entries.iter().position(|&(key, _, _)| key == k)?;
        let e = self.entries.remove(pos);
        let v = e.1;
        self.entries.insert(0, e);
        Some(v)
    }

    fn insert(&mut self, k: u8, v: u16, b: usize) {
        if let Some(pos) = self.entries.iter().position(|&(key, _, _)| key == k) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (k, v, b));
        loop {
            let bytes: usize = self.entries.iter().map(|&(_, _, b)| b).sum();
            if self.entries.len() > self.max_entries
                || (bytes > self.max_bytes && self.entries.len() > 1)
            {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    fn invalidate(&mut self, k: u8) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(key, _, _)| key != k);
        self.entries.len() != before
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_matches_reference_model(ops in proptest::collection::vec(arb_cache_op(), 1..200)) {
        let mut cache: LruCache<u8, u16> = LruCache::new(8, 100);
        let mut model = ModelLru {
            max_entries: 8,
            max_bytes: 100,
            ..Default::default()
        };
        for op in ops {
            match op {
                CacheOp::Get(k) => {
                    prop_assert_eq!(cache.get(&k).copied(), model.get(k));
                }
                CacheOp::Insert(k, v, b) => {
                    cache.insert(k, v, b as usize);
                    model.insert(k, v, b as usize);
                }
                CacheOp::Invalidate(k) => {
                    prop_assert_eq!(cache.invalidate(&k), model.invalidate(k));
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            let model_bytes: usize = model.entries.iter().map(|&(_, _, b)| b).sum();
            prop_assert_eq!(cache.bytes(), model_bytes);
        }
    }
}

// ── Blob store ─────────────────────────────────────────────────────────────

#[derive(Clone, Debug)]
enum BlobOp {
    Put(Vec<u8>),
    DeleteExisting(usize),
}

fn arb_blob_op() -> impl Strategy<Value = BlobOp> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..64).prop_map(BlobOp::Put),
        1 => any::<usize>().prop_map(BlobOp::DeleteExisting),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Live blobs always read back exactly; the free list stays sorted,
    /// disjoint, and never overlaps a live blob.
    #[test]
    fn blobstore_invariants(ops in proptest::collection::vec(arb_blob_op(), 1..100)) {
        let mut store = BlobStore::in_memory();
        let mut live: Vec<(mmdb_storage::BlobRef, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                BlobOp::Put(data) => {
                    let r = store.put(&data).unwrap();
                    live.push((r, data));
                }
                BlobOp::DeleteExisting(raw) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (r, _) = live.swap_remove(raw % live.len());
                    store.delete(r);
                }
            }
            // Every live blob reads back intact.
            for (r, data) in &live {
                prop_assert_eq!(&store.get(*r).unwrap(), data);
            }
            // Free list: sorted, disjoint, inside the file.
            let fl = store.free_list();
            for w in fl.windows(2) {
                prop_assert!(w[0].0 + w[0].1 < w[1].0 + 1, "free list overlap/adjacency");
            }
            for &(off, len) in fl {
                prop_assert!(off + len <= store.file_size());
                for (r, _) in &live {
                    if r.len == 0 { continue; }
                    let no_overlap = r.offset + r.len <= off || off + len <= r.offset;
                    prop_assert!(no_overlap, "hole ({off},{len}) overlaps live blob {r:?}");
                }
            }
        }
    }
}

// ── Catalog serialization ─────────────────────────────────────────────────

fn arb_catalog() -> impl Strategy<Value = Catalog> {
    proptest::collection::vec(
        (
            2u32..12,
            2u32..12,
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 3),
        ),
        0..12,
    )
    .prop_map(|specs| {
        let q = RgbQuantizer::default_64();
        let mut catalog = Catalog::new(q.describe());
        let mut binary_ids = Vec::new();
        for (w, h, edited, rgb) in specs {
            let id = catalog.allocate_id();
            if edited && !binary_ids.is_empty() {
                let base: ImageId = binary_ids[rgb[0] as usize % binary_ids.len()];
                let mut seq = EditSequence::builder(base)
                    .define(Rect::new(0, 0, w as i64, h as i64))
                    .modify(Rgb::new(rgb[0], rgb[1], rgb[2]), Rgb::WHITE)
                    .mutate(Matrix3::translation(1.0, 2.0));
                if rgb[1] % 2 == 1 {
                    // A merge target, possibly the base itself.
                    let target = binary_ids[rgb[2] as usize % binary_ids.len()];
                    seq = seq.merge_into(target, 0, 0);
                }
                catalog.insert(id, CatalogEntry::edited(Arc::new(seq.build())));
            } else {
                let img = RasterImage::filled(w, h, Rgb::new(rgb[0], rgb[1], rgb[2])).unwrap();
                catalog.insert(
                    id,
                    CatalogEntry::Binary {
                        blob: mmdb_storage::BlobRef {
                            offset: (w * h) as u64,
                            len: (w + h) as u64,
                        },
                        width: w,
                        height: h,
                        histogram: Arc::new(ColorHistogram::extract(&img, &q)),
                    },
                );
                binary_ids.push(id);
            }
        }
        catalog
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn catalog_roundtrip(catalog in arb_catalog(), free in proptest::collection::vec((0u64..1000, 1u64..100), 0..5)) {
        // Make the free list sorted & disjoint.
        let mut free = free;
        free.sort_unstable();
        let mut cursor = 0u64;
        for hole in &mut free {
            hole.0 = hole.0.max(cursor);
            cursor = hole.0 + hole.1 + 1;
        }
        let bytes = catalog.encode(&free);
        let (back, free2) = Catalog::decode(&bytes).expect("roundtrip decodes");
        prop_assert_eq!(&free2, &free);
        prop_assert_eq!(back.len(), catalog.len());
        prop_assert_eq!(back.quantizer_desc(), catalog.quantizer_desc());
        for (id, entry) in catalog.iter() {
            let other = back.get(id).expect("entry survives");
            match (entry, other) {
                (
                    CatalogEntry::Binary { blob: b1, width: w1, height: h1, histogram: g1 },
                    CatalogEntry::Binary { blob: b2, width: w2, height: h2, histogram: g2 },
                ) => {
                    prop_assert_eq!(b1, b2);
                    prop_assert_eq!((w1, h1), (w2, h2));
                    prop_assert_eq!(g1.counts(), g2.counts());
                }
                (
                    CatalogEntry::Edited { sequence: s1, .. },
                    CatalogEntry::Edited { sequence: s2, .. },
                ) => prop_assert_eq!(s1.as_ref(), s2.as_ref()),
                _ => prop_assert!(false, "entry kind changed for {}", id),
            }
            prop_assert_eq!(back.children_of(id), catalog.children_of(id));
            // The referrer count is rebuilt on decode, and is what it says.
            let naming = catalog
                .iter()
                .filter(|(_, e)| match e {
                    CatalogEntry::Edited { sequence } => {
                        sequence.base == id || sequence.merge_targets().contains(&id)
                    }
                    CatalogEntry::Binary { .. } => false,
                })
                .count();
            prop_assert_eq!(catalog.referrers(id), naming);
            prop_assert_eq!(back.referrers(id), naming);
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn catalog_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Catalog::decode(&bytes);
    }
}
