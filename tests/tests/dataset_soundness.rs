//! Dataset-scale soundness: over realistically generated augmented
//! databases, the conservative rule bounds admit the true histogram of every
//! edited image, and the BWM classification agrees with the op-level
//! definition.

use mmdb_bwm::Classification;
use mmdb_datagen::{Collection, DatasetBuilder};
use mmdb_histogram::ColorHistogram;
use mmdb_rules::{RuleEngine, RuleProfile};

fn check(collection: Collection, seed: u64) {
    let (db, info) = DatasetBuilder::new(collection)
        .total_images(60)
        .pct_edited(0.7)
        .seed(seed)
        .build();
    let engine =
        RuleEngine::with_background(db.quantizer(), RuleProfile::Conservative, db.background());
    // Sample bins: the collection palette's bins plus a few uniform ones.
    let mut bins: Vec<usize> = (0..db.quantizer().bin_count()).step_by(7).collect();
    bins.push(0);
    bins.sort_unstable();
    bins.dedup();

    for &id in &info.edited_ids {
        let seq = db.edit_sequence(id).expect("edited image has a sequence");
        let raster = db.raster(id).expect("instantiates");
        let truth = ColorHistogram::extract(&raster, db.quantizer());
        for &bin in &bins {
            let bounds = engine
                .bounds(&seq, bin, &db)
                .unwrap_or_else(|e| panic!("{id} bin {bin}: {e}"));
            assert_eq!(
                bounds.total,
                raster.pixel_count(),
                "{id}: total mismatch (seq {seq:?})"
            );
            assert!(
                bounds.admits(truth.count(bin)),
                "{id} bin {bin}: bounds {bounds:?} exclude true count {}",
                truth.count(bin)
            );
        }
    }
}

#[test]
fn flags_bounds_admit_ground_truth() {
    check(Collection::Flags, 101);
}

#[test]
fn helmets_bounds_admit_ground_truth() {
    check(Collection::Helmets, 102);
}

#[test]
fn bwm_classification_matches_op_level_definition() {
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(60)
        .pct_edited(0.7)
        .seed(5)
        .build();
    let bwm = db.bwm_snapshot();
    for &id in &info.edited_ids {
        let seq = db.edit_sequence(id).unwrap();
        let expected = if seq.all_bound_widening() {
            Classification::Main
        } else {
            Classification::Unclassified
        };
        let base = db.base_of(id).unwrap();
        assert_eq!(bwm.classification(id, base), Some(expected), "{id}");
        if expected == Classification::Main {
            assert!(bwm.cluster_of(base).unwrap().contains(&id));
        }
    }
}

#[test]
fn edited_histograms_via_storage_match_direct_extraction() {
    let (db, info) = DatasetBuilder::new(Collection::Helmets)
        .total_images(30)
        .pct_edited(0.5)
        .seed(8)
        .build();
    for &id in info.edited_ids.iter().take(10) {
        let via_storage = db.histogram(id).unwrap();
        let raster = db.raster(id).unwrap();
        let direct = ColorHistogram::extract(&raster, db.quantizer());
        assert_eq!(via_storage.counts(), direct.counts());
    }
}
