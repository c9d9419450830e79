//! k-nearest-neighbour search **over the whole augmented database** — the
//! extension the paper lists as future work (§6: "more testing is needed to
//! verify the effects of the proposed data structure on systems that ...
//! permit other types of queries including nearest neighbor searches").
//!
//! The difficulty is the edited images: their exact histograms are unknown
//! without instantiation. The same Table 1 bounds that answer range queries
//! also yield a **lower bound on the L1 distance** between a query signature
//! `y` and any edited image: for every bin `b` with feasible fraction range
//! `[lo_b, hi_b]`,
//!
//! ```text
//! |x_b − y_b|  ≥  max(0,  y_b − hi_b,  lo_b − y_b)        for all feasible x_b
//! ```
//!
//! so summing the right-hand side over bins lower-bounds the true L1
//! distance. The search then runs in the classic filter-and-refine shape:
//!
//! 1. exact distances for all binary images (their histograms are stored),
//! 2. per edited image, the bound-derived lower bound; images whose lower
//!    bound already exceeds the current k-th best distance are **pruned
//!    without instantiation**,
//! 3. survivors are instantiated (through the storage engine's raster cache)
//!    and ranked exactly.
//!
//! The result is *exact* (identical to brute force — no false dismissals,
//! verified by tests); the bounds only save work.

use mmdb_editops::ImageId;
use mmdb_histogram::{l1_distance, ColorHistogram};
use mmdb_rules::{BoundRange, InfoResolver, RuleError};
use mmdb_storage::{StorageEngine, StorageError};
use std::cmp::Ordering;

/// Work counters for one k-NN execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Binary images ranked exactly from stored histograms.
    pub binary_scored: usize,
    /// Edited images whose lower bound pruned them without instantiation.
    pub edited_pruned: usize,
    /// Edited images that had to be instantiated and ranked exactly.
    pub edited_instantiated: usize,
}

/// The outcome of a k-NN over the augmented database.
#[derive(Clone, Debug)]
pub struct KnnOutcome {
    /// Up to `k` `(L1 distance, image)` pairs, ascending by distance.
    pub neighbours: Vec<(f64, ImageId)>,
    /// Work counters.
    pub stats: KnnStats,
}

/// How far [`l1_lower_bound`] may exceed the exact distance it bounds: the
/// two sum the same per-bin fractions rounded differently (`min / total`
/// against `count * (1 / total)`), a few ulps apart. Pruning only beyond
/// this margin keeps the search exact.
const PRUNE_SLACK: f64 = 1e-9;

/// The L1 lower bound for a query signature against per-bin fraction bounds.
pub fn l1_lower_bound(query_signature: &[f64], bounds: &[BoundRange]) -> f64 {
    debug_assert_eq!(query_signature.len(), bounds.len());
    query_signature
        .iter()
        .zip(bounds)
        .map(|(&y, b)| {
            let (lo, hi) = b.fraction_range();
            (y - hi).max(lo - y).max(0.0)
        })
        .sum()
}

/// Exact k-nearest-neighbour search by L1 histogram distance over **all**
/// images (binary and edited), pruning edited images with rule-derived
/// lower bounds — the Conservative rules every program holds: a bound that
/// is not sound could prune a true neighbour. Observes nothing: a sharded database
/// runs this once per shard, and whoever owns the whole request reports it
/// ([`observed_knn`](crate::executor::observed_knn)).
pub fn knn_augmented(
    db: &StorageEngine,
    query: &ColorHistogram,
    k: usize,
) -> crate::executor::Result<KnnOutcome> {
    assert_eq!(
        query.bin_count(),
        db.quantizer().bin_count(),
        "query histogram bin count mismatch"
    );
    let mut stats = KnnStats::default();
    if k == 0 {
        return Ok(KnnOutcome {
            neighbours: Vec::new(),
            stats,
        });
    }
    let query_sig = query.signature();

    // Phase 1: exact distances for binary images, from one view of the
    // catalog (the RBM scan's shape).
    let mut best: Vec<(f64, ImageId)> = Vec::new();
    for (id, histogram) in db.read_view().binaries() {
        stats.binary_scored += 1;
        keep_best(&mut best, k, (l1_distance(query, histogram), id));
    }

    // Phase 2: filter-and-refine over edited images, each evaluated from
    // the program kept in its Figure 1 entry. Refining instantiates, which
    // re-takes the catalog lock, so this phase lists ids and looks each up
    // again: one deleted in between is not a neighbour (the Instantiate
    // scan's rule). A missing *referenced* image still fails.
    for id in db.edited_ids() {
        let program = match db.bound_program(id) {
            Err(RuleError::UnknownImage(gone)) if gone == id => continue,
            program => program?,
        };
        let program = program.view();
        let base = InfoResolver::require(db, program.base())?;
        let tau = best.get(k - 1).map_or(f64::INFINITY, |kth| kth.0);
        let bounds = program.eval_vector(&base.histogram);
        let lower = l1_lower_bound(&query_sig, &bounds);
        if lower > tau + PRUNE_SLACK {
            stats.edited_pruned += 1;
            continue;
        }
        // Refine: instantiate and rank exactly.
        let exact_hist = match db.histogram(id) {
            Err(StorageError::NotFound(gone)) if gone == id => continue,
            hist => hist?,
        };
        let d = l1_distance(query, &exact_hist);
        stats.edited_instantiated += 1;
        keep_best(&mut best, k, (d, id));
    }

    Ok(KnnOutcome {
        neighbours: best,
        stats,
    })
}

/// Brute-force reference: instantiates everything. Exposed for verification
/// and the k-NN benchmarks.
pub fn knn_brute_force(
    db: &StorageEngine,
    query: &ColorHistogram,
    k: usize,
) -> crate::executor::Result<Vec<(f64, ImageId)>> {
    let mut all: Vec<(f64, ImageId)> = Vec::new();
    for id in db.ids() {
        let hist = db.histogram(id)?;
        all.push((l1_distance(query, &hist), id));
    }
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(k);
    Ok(all)
}

/// The one neighbour order: ascending by distance, tie-broken by id, so a
/// shard-merged list reads the same at every shard count.
fn neighbour_order(a: &(f64, ImageId), b: &(f64, ImageId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Sorts `neighbours` into the one neighbour order.
pub fn sort_neighbours(neighbours: &mut [(f64, ImageId)]) {
    neighbours.sort_unstable_by(neighbour_order);
}

/// Keeps `best` the first `k` candidates in the one neighbour order, so a
/// tie on distance goes to the smaller id, as in brute force, and the k-th
/// entry is the pruning threshold.
fn keep_best(best: &mut Vec<(f64, ImageId)>, k: usize, cand: (f64, ImageId)) {
    let at = best.partition_point(|kept| neighbour_order(kept, &cand).is_lt());
    if at < k {
        best.insert(at, cand);
        best.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::EditSequence;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
    use mmdb_rules::{RuleEngine, RuleProfile};

    /// Gradient of red fractions plus edited variants.
    fn setup() -> (StorageEngine, Vec<ImageId>) {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let mut bases = Vec::new();
        for rows in [0u32, 2, 4, 6, 8, 10] {
            let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
            draw::fill_rect(&mut img, &Rect::new(0, 0, 10, rows as i64), Rgb::RED);
            bases.push(db.insert_binary(&img).unwrap());
        }
        for (i, &b) in bases.iter().enumerate() {
            // A recolor variant and a crop variant per base.
            db.insert_edited(
                EditSequence::builder(b)
                    .define(Rect::new(0, 0, 3, 3))
                    .modify(Rgb::WHITE, Rgb::BLUE)
                    .build(),
            )
            .unwrap();
            if i % 2 == 0 {
                db.insert_edited(
                    EditSequence::builder(b)
                        .define(Rect::new(0, 0, 10, 5))
                        .crop_to_region()
                        .build(),
                )
                .unwrap();
            }
        }
        (db, bases)
    }

    fn probe(rows: i64) -> ColorHistogram {
        let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, rows), Rgb::RED);
        ColorHistogram::extract(&img, &RgbQuantizer::default_64())
    }

    #[test]
    fn matches_brute_force_exactly() {
        let (db, _) = setup();
        for rows in [1i64, 5, 9] {
            let q = probe(rows);
            for k in [1usize, 3, 7, 100] {
                let fast = knn_augmented(&db, &q, k).unwrap();
                let brute = knn_brute_force(&db, &q, k).unwrap();
                assert_eq!(fast.neighbours.len(), brute.len());
                for (f, b) in fast.neighbours.iter().zip(&brute) {
                    assert!(
                        (f.0 - b.0).abs() < 1e-12 && f.1 == b.1,
                        "neighbour mismatch at k={k}: {f:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// Three images at distance 0 from the probe, the edited one in the
    /// middle by id: brute force keeps the two smallest ids, and so must
    /// the pruned search, though the edited image is scored last.
    #[test]
    fn a_tie_on_distance_goes_to_the_smaller_id() {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, 4), Rgb::RED);
        let a = db.insert_binary(&img).unwrap();
        // Recolours a colour `a` lacks: the histogram does not change.
        let lacking = EditSequence::builder(a).modify(Rgb::BLUE, Rgb::GREEN);
        let variant = db.insert_edited(lacking.build()).unwrap();
        let c = db.insert_binary(&img).unwrap();
        let q = ColorHistogram::extract(&img, &RgbQuantizer::default_64());
        let ids = |neighbours: &[(f64, ImageId)]| neighbours.iter().map(|n| n.1).collect();
        let brute: Vec<ImageId> = ids(&knn_brute_force(&db, &q, 2).unwrap());
        assert_eq!(brute, vec![a, variant]);
        assert!(c > variant);
        let fast: Vec<ImageId> = ids(&knn_augmented(&db, &q, 2).unwrap().neighbours);
        assert_eq!(fast, brute);
    }

    #[test]
    fn pruning_happens_and_is_sound() {
        let (db, _) = setup();
        let q = probe(2);
        let out = knn_augmented(&db, &q, 2).unwrap();
        assert_eq!(
            out.stats.edited_pruned + out.stats.edited_instantiated,
            db.edited_ids().len()
        );
        assert!(
            out.stats.edited_pruned > 0,
            "bounds should prune something: {:?}",
            out.stats
        );
        assert_eq!(out.stats.binary_scored, 6);
    }

    #[test]
    fn lower_bound_is_a_true_lower_bound() {
        let (db, _) = setup();
        let q = probe(4);
        let sig = q.signature();
        let engine = RuleEngine::new(db.quantizer(), RuleProfile::Conservative);
        for id in db.edited_ids() {
            let seq = db.edit_sequence(id).unwrap();
            let bounds = engine.bounds_trace(&seq, &db).unwrap().pop().unwrap();
            let lower = l1_lower_bound(&sig, &bounds);
            let exact = l1_distance(&q, &db.histogram(id).unwrap());
            assert!(
                lower <= exact + 1e-9,
                "{id}: lower bound {lower} exceeds exact {exact}"
            );
        }
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let (db, _) = setup();
        let q = probe(4);
        let out = knn_augmented(&db, &q, 0).unwrap();
        assert!(out.neighbours.is_empty());
        let total = db.ids().len();
        let out = knn_augmented(&db, &q, total + 10).unwrap();
        assert_eq!(out.neighbours.len(), total);
        // Ascending order.
        for w in out.neighbours.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn exact_match_ranks_first() {
        let (db, bases) = setup();
        let q = probe(4); // equals the rows=4 base exactly
        let out = knn_augmented(&db, &q, 1).unwrap();
        assert!(out.neighbours[0].0 < 1e-12);
        assert_eq!(out.neighbours[0].1, bases[2]);
    }
}
