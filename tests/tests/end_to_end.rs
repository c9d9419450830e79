//! End-to-end integration: generated augmented databases answered by all
//! three plans, with the paper's correctness guarantees checked on every
//! query.

use mmdb_datagen::{Collection, DatasetBuilder, QueryGenerator, VariantConfig};
use mmdb_query::QueryProcessor;

fn check_collection(collection: Collection, seed: u64) {
    let (db, info) = DatasetBuilder::new(collection)
        .total_images(80)
        .pct_edited(0.7)
        .seed(seed)
        .variant_config(VariantConfig {
            min_ops: 3,
            max_ops: 8,
            p_merge_target: 0.3,
        })
        .build();
    let qp = QueryProcessor::new(&db);

    // The BWM structure tracks exactly the dataset's classification stats.
    let bwm = db.bwm_snapshot();
    assert_eq!(bwm.cluster_count(), info.binary_images);
    assert_eq!(bwm.classified_count(), info.bound_widening_only);
    assert_eq!(bwm.unclassified_count(), info.non_bound_widening);

    let queries = QueryGenerator::weighted_from_db(seed ^ 77, &db).batch(25);
    for (i, q) in queries.iter().enumerate() {
        let rbm = qp.range_rbm(q).unwrap();
        let bwm_out = qp.range_bwm(q).unwrap();
        // §4: BWM produces "the same query results" as RBM.
        assert_eq!(
            rbm.sorted_results(),
            bwm_out.sorted_results(),
            "query {i} of {collection}: result sets diverge"
        );
        // BWM never does more BOUNDS work than RBM.
        assert!(
            bwm_out.stats.bounds_computed <= rbm.stats.bounds_computed,
            "query {i}: BWM computed more bounds than RBM"
        );
        // No false negatives against the instantiation ground truth.
        let truth = qp.range_instantiate(q).unwrap();
        for id in truth.sorted_results() {
            assert!(
                rbm.results.contains(&id),
                "query {i} of {collection}: false negative {id}"
            );
        }
    }
}

#[test]
fn flags_end_to_end() {
    check_collection(Collection::Flags, 11);
}

#[test]
fn helmets_end_to_end() {
    check_collection(Collection::Helmets, 13);
}

#[test]
fn provenance_expansion_includes_bases() {
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(40)
        .pct_edited(0.5)
        .seed(3)
        .build();
    let qp = QueryProcessor::new(&db);
    let expanded = qp.expand_with_bases(&info.edited_ids);
    for &edited in &info.edited_ids {
        let base = db.base_of(edited).expect("edited image has a base");
        assert!(expanded.contains(&base), "{base} missing from expansion");
    }
    // Expansion is idempotent.
    let twice = qp.expand_with_bases(&expanded);
    assert_eq!(twice, expanded);
}

#[test]
fn facade_matches_raw_processor() {
    use mmdbms::prelude::*;
    let (db, _info) = DatasetBuilder::new(Collection::Helmets)
        .total_images(40)
        .pct_edited(0.6)
        .seed(9)
        .build();
    // Rebuild the same data through the facade by re-inserting rasters and
    // sequences, then compare a query across both stacks.
    let facade = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
    let mut id_map = std::collections::HashMap::new();
    for old in db.binary_ids() {
        let raster = db.raster(old).unwrap();
        id_map.insert(old, facade.insert_image(&raster).unwrap());
    }
    for old in db.edited_ids() {
        let seq = db.edit_sequence(old).unwrap();
        let mut remapped = (*seq).clone();
        remapped.base = id_map[&remapped.base];
        for op in &mut remapped.ops {
            if let mmdbms::editops::EditOp::Merge {
                target: Some(t), ..
            } = op
            {
                *t = id_map[t];
            }
        }
        id_map.insert(old, facade.insert_edited(remapped).unwrap());
    }
    let qp = QueryProcessor::new(&db);
    let q = ColorRangeQuery::at_least(0, 0.1);
    let raw: Vec<_> = qp
        .range_bwm(&q)
        .unwrap()
        .sorted_results()
        .into_iter()
        .map(|id| id_map[&id])
        .collect();
    let mut raw = raw;
    raw.sort_unstable();
    let via_facade = facade.query_range(&q).unwrap().sorted_results();
    assert_eq!(raw, via_facade);
}

#[test]
fn hsv_quantizer_full_pipeline() {
    // The whole stack is quantizer-generic: run a mini end-to-end pass over
    // the 162-bin HSV space.
    use mmdbms::prelude::*;
    let db = MultimediaDatabase::in_memory(Box::new(HsvQuantizer::default_162()));
    let generator = mmdb_datagen::flags::FlagGenerator::with_seed(31);
    let mut bases = Vec::new();
    for i in 0..8 {
        bases.push(db.insert_image(&generator.generate(i)).unwrap());
    }
    for &b in &bases {
        db.insert_edited(
            EditSequence::builder(b)
                .define(Rect::new(5, 5, 40, 30))
                .modify(Rgb::new(0xCE, 0x11, 0x26), Rgb::new(0x00, 0x7A, 0x3D))
                .blur()
                .build(),
        )
        .unwrap();
    }
    assert_eq!(db.quantizer().bin_count(), 162);
    let red_bin = db.bin_of(Rgb::new(0xCE, 0x11, 0x26));
    let q = ColorRangeQuery::at_least(red_bin, 0.1);
    let bwm = db.query_range(&q).unwrap();
    let rbm = db.query_range_with_plan(&q, QueryPlan::Rbm).unwrap();
    assert_eq!(bwm.sorted_results(), rbm.sorted_results());
    let truth = db
        .query_range_with_plan(&q, QueryPlan::Instantiate)
        .unwrap();
    for id in truth.sorted_results() {
        assert!(bwm.results.contains(&id), "HSV false negative {id}");
    }
    // fsck passes under HSV too.
    assert!(db.storage().verify().is_empty());
}
