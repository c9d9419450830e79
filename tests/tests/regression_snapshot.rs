//! Regression snapshot: for one pinned seed, the generated dataset and the
//! deterministic work counters of both query methods are frozen. A change to
//! any of these numbers means the behaviour of the generator, classifier or
//! query algorithms drifted — which must be a conscious decision, recorded by
//! updating this file.

use mmdb_datagen::{Collection, DatasetBuilder, QueryGenerator, VariantConfig};
use mmdb_query::QueryProcessor;

#[test]
fn pinned_seed_snapshot() {
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(100)
        .pct_edited(0.7)
        .seed(20060403) // ICDE 2006
        .variant_config(VariantConfig {
            min_ops: 4,
            max_ops: 9,
            p_merge_target: 0.3,
        })
        .build();

    // Dataset shape.
    assert_eq!(info.binary_images, 30);
    assert_eq!(info.edited_images, 70);
    assert_eq!(
        (info.bound_widening_only, info.non_bound_widening),
        (55, 15),
        "variant classification drifted"
    );
    assert!(
        (info.avg_ops_per_edited - 7.5429).abs() < 0.02,
        "op mix drifted: {}",
        info.avg_ops_per_edited
    );

    // Query-path work counters over a pinned batch.
    let qp = QueryProcessor::new(&db);
    let queries = QueryGenerator::weighted_from_db(7, &db)
        .thresholds(0.05, 0.3)
        .two_sided_probability(0.0)
        .batch(10);
    let mut rbm_results = 0usize;
    let mut bwm_bounds = 0usize;
    let mut base_hits = 0usize;
    for q in &queries {
        let rbm = qp.range_rbm(q).unwrap();
        let bwm = qp.range_bwm(q).unwrap();
        assert_eq!(rbm.sorted_results(), bwm.sorted_results());
        rbm_results += rbm.results.len();
        bwm_bounds += bwm.stats.bounds_computed;
        base_hits += bwm.stats.base_hits;
    }
    assert_eq!(
        (rbm_results, bwm_bounds, base_hits),
        (745, 513, 100),
        "query work counters drifted"
    );
}
