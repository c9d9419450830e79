//! Telemetry integration: the storage engine's LRU accounting surfaces
//! exactly through `StorageStats`, and traced BWM queries report their
//! bound-widening work faithfully.

use mmdb_datagen::{Collection, DatasetBuilder, QueryGenerator};
use mmdb_editops::EditSequence;
use mmdb_histogram::RgbQuantizer;
use mmdb_imaging::{RasterImage, Rect, Rgb};
use mmdb_query::{QueryPlan, QueryProcessor};
use mmdb_storage::StorageEngine;

/// Scripted access pattern against the raster LRU: every step's hit/miss
/// outcome is known, so the stats must match exactly.
#[test]
fn lru_hit_miss_accounting_matches_scripted_pattern() {
    let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
    let base = db
        .insert_binary(&RasterImage::filled(16, 16, Rgb::RED).unwrap())
        .unwrap();
    // Inserts do not touch the raster cache — no lookups yet.
    let s = db.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses),
        (0, 0),
        "after insert: {s:?}"
    );

    // First read decodes from the blob store (miss), second is served from
    // the cache (hit).
    db.raster(base).unwrap();
    db.raster(base).unwrap();
    let s = db.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses),
        (1, 1),
        "binary reads: {s:?}"
    );

    // Inserting an edited image stores only the sequence; no cache traffic.
    let edited = db
        .insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 8, 8))
                .modify(Rgb::RED, Rgb::GREEN)
                .build(),
        )
        .unwrap();
    let s = db.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses),
        (1, 1),
        "edited insert: {s:?}"
    );

    // First raster of the edited image: a miss for the edited id, plus one
    // hit for the base the instantiation engine resolves through the same
    // cache.
    db.raster(edited).unwrap();
    let s = db.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (2, 2), "instantiate: {s:?}");

    // The instantiated raster is now cached: a pure hit.
    db.raster(edited).unwrap();
    let s = db.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (3, 2), "re-read: {s:?}");
}

/// A database whose images were never edited has no BOUNDS work to do, so
/// every traced BWM query must report zero widened bounds (and zero BOUNDS
/// computations at all).
#[test]
fn bwm_trace_reports_zero_widening_for_never_edited_database() {
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(30)
        .pct_edited(0.0)
        .seed(5)
        .build();
    assert_eq!(info.edited_images, 0, "dataset must be binary-only");

    let qp = QueryProcessor::new(&db);
    let queries = QueryGenerator::weighted_from_db(99, &db).batch(10);
    for q in &queries {
        let (outcome, trace) = qp.range_with_plan_traced(QueryPlan::Bwm, q).unwrap();
        assert_eq!(trace.counter_value("bounds_widened"), Some(0));
        assert_eq!(trace.counter_value("bounds_computed"), Some(0));
        assert_eq!(
            trace.counter_value("results"),
            Some(outcome.results.len() as u64)
        );
        // The traced path returns the same results as the untraced one.
        assert_eq!(
            outcome.sorted_results(),
            qp.range_bwm(q).unwrap().sorted_results()
        );
    }
}
