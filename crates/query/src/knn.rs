//! k-nearest-neighbour search over binary-image histogram signatures.
//!
//! §3.1: "to reduce the query processing time, the histograms can be
//! organized in multidimensional indexes such as the R-tree". This module
//! indexes the normalized signatures of a database's *binary* images in the
//! `mmdb-index` R-tree and answers similarity (k-NN by L2 over signatures)
//! and signature-box range probes. (k-NN over *edited* images is future work
//! in the paper; the range-query pipeline is the headline reproduction.)

use mmdb_editops::ImageId;
use mmdb_histogram::ColorHistogram;
use mmdb_index::{bulk_load_str, Mbr, RTree};
use mmdb_rules::InfoResolver;
use mmdb_storage::StorageEngine;

/// An R-tree over histogram signatures of binary images.
pub struct SignatureIndex {
    tree: RTree<ImageId>,
    dims: usize,
    epoch: u64,
}

impl SignatureIndex {
    /// Bulk-loads the index from every binary image in `db` (STR packing),
    /// stamped with the mutation epoch captured *before* the listing: a
    /// write racing the build leaves the stamp behind the engine, never
    /// ahead.
    pub fn build(db: &StorageEngine) -> Self {
        let epoch = db.current_epoch();
        let dims = db.quantizer().bin_count();
        let entries: Vec<(Mbr, ImageId)> = db
            .binary_ids()
            .into_iter()
            .filter_map(|id| {
                let info = db.info(id)?;
                Some((Mbr::point(&info.histogram.signature()), id))
            })
            .collect();
        SignatureIndex {
            tree: bulk_load_str(dims, 16, entries),
            dims,
            epoch,
        }
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Signature dimensionality (= histogram bin count).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `k` indexed images nearest to `query`'s signature by Euclidean
    /// distance, ascending.
    ///
    /// # Panics
    /// Panics when `query`'s bin count differs from the index dimensions.
    pub fn nearest(&self, query: &ColorHistogram, k: usize) -> Vec<(f64, ImageId)> {
        assert_eq!(
            query.bin_count(),
            self.dims,
            "query histogram bin count mismatch"
        );
        self.tree
            .nearest(&query.signature(), k)
            .into_iter()
            .map(|(d, &id)| (d, id))
            .collect()
    }

    /// All indexed images whose signature fraction in `bin` lies within
    /// `[lo, hi]` — the index-accelerated form of a single-bin range query
    /// over binary images.
    pub fn bin_range(&self, bin: usize, lo: f64, hi: f64) -> Vec<ImageId> {
        assert!(bin < self.dims, "bin {bin} out of range");
        let mut lo_corner = vec![0.0; self.dims];
        let mut hi_corner = vec![1.0; self.dims];
        lo_corner[bin] = lo;
        hi_corner[bin] = hi;
        let mut hits: Vec<ImageId> = self
            .tree
            .search_intersecting(&Mbr::new(lo_corner, hi_corner))
            .into_iter()
            .copied()
            .collect();
        hits.sort_unstable();
        hits
    }
}

impl mmdb_boundidx::EpochStamped for SignatureIndex {
    /// The epoch captured before the listing this tree was built from.
    fn stamp(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    fn db_with_red_gradient() -> (StorageEngine, Vec<ImageId>) {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let mut ids = Vec::new();
        for rows in 0..=10u32 {
            let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
            draw::fill_rect(&mut img, &Rect::new(0, 0, 10, rows as i64), Rgb::RED);
            ids.push(db.insert_binary(&img).unwrap());
        }
        (db, ids)
    }

    #[test]
    fn nearest_finds_closest_red_fraction() {
        let (db, ids) = db_with_red_gradient();
        let index = SignatureIndex::build(&db);
        assert_eq!(index.len(), 11);
        // Query: 40% red.
        let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, 4), Rgb::RED);
        let q = ColorHistogram::extract(&img, &RgbQuantizer::default_64());
        let nn = index.nearest(&q, 3);
        assert_eq!(nn[0].1, ids[4], "exact match first");
        assert!(nn[0].0 < 1e-9);
        // Next nearest are the 30% and 50% images, in some order.
        let next: Vec<ImageId> = nn[1..].iter().map(|&(_, id)| id).collect();
        assert!(next.contains(&ids[3]) && next.contains(&ids[5]), "{next:?}");
    }

    #[test]
    fn bin_range_matches_linear_filter() {
        let (db, ids) = db_with_red_gradient();
        let index = SignatureIndex::build(&db);
        let red = db.quantizer().bin_of(Rgb::RED);
        let hits = index.bin_range(red, 0.25, 0.65);
        // 30%..60% red → ids[3..=6].
        assert_eq!(hits, vec![ids[3], ids[4], ids[5], ids[6]]);
    }

    #[test]
    fn edited_images_are_not_indexed() {
        let (db, ids) = db_with_red_gradient();
        db.insert_edited(
            mmdb_editops::EditSequence::builder(ids[0])
                .modify(Rgb::WHITE, Rgb::RED)
                .build(),
        )
        .unwrap();
        let index = SignatureIndex::build(&db);
        assert_eq!(index.len(), 11, "only binary images indexed");
    }

    #[test]
    fn empty_database_index() {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let index = SignatureIndex::build(&db);
        assert!(index.is_empty());
        let q = ColorHistogram::zeroed(64);
        assert!(index.nearest(&q, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn wrong_dims_panics() {
        let (db, _) = db_with_red_gradient();
        let index = SignatureIndex::build(&db);
        index.nearest(&ColorHistogram::zeroed(8), 1);
    }
}
