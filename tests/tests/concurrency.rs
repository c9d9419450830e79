//! Concurrency integration: the storage engine and query paths are shared
//! across threads (`&StorageEngine` is `Sync`); readers must see consistent
//! data while writers insert.

use mmdb_datagen::{Collection, DatasetBuilder, QueryGenerator};
use mmdb_editops::EditSequence;
use mmdb_imaging::{RasterImage, Rect, Rgb};
use mmdb_query::QueryProcessor;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn concurrent_readers_during_inserts() {
    let (db, info) = DatasetBuilder::new(Collection::Flags)
        .total_images(40)
        .pct_edited(0.5)
        .seed(17)
        .build();
    let initial_ids = db.ids();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: keeps inserting new binary images and edited variants.
        scope.spawn(|| {
            for i in 0..60u32 {
                let img = RasterImage::filled(20, 20, Rgb::new((i * 4) as u8, 100, 50)).unwrap();
                let base = db.insert_binary(&img).expect("insert under contention");
                db.insert_edited(
                    EditSequence::builder(base)
                        .define(Rect::new(0, 0, 10, 10))
                        .modify(Rgb::new((i * 4) as u8, 100, 50), Rgb::WHITE)
                        .build(),
                )
                .expect("edited insert under contention");
            }
            stop.store(true, Ordering::SeqCst);
        });
        // Readers: rasters and histograms of the *initial* ids stay valid
        // and bit-stable throughout.
        for _ in 0..3 {
            scope.spawn(|| {
                let baseline: Vec<_> = initial_ids
                    .iter()
                    .map(|&id| db.raster(id).expect("raster"))
                    .collect();
                while !stop.load(Ordering::SeqCst) {
                    for (&id, expect) in initial_ids.iter().zip(&baseline) {
                        let got = db.raster(id).expect("raster under contention");
                        assert_eq!(&got, expect, "{id} changed under concurrent writes");
                    }
                }
            });
        }
        // Query reader: RBM over a snapshot processor keeps succeeding.
        scope.spawn(|| {
            let qp = QueryProcessor::new(&db);
            let mut qgen = QueryGenerator::weighted_from_db(3, &db);
            while !stop.load(Ordering::SeqCst) {
                for q in qgen.batch(4) {
                    let out = qp.range_rbm(&q).expect("query under contention");
                    // Sanity: results refer to existing images.
                    for id in out.results {
                        assert!(db.contains(id));
                    }
                }
            }
        });
    });

    // Everything inserted made it.
    assert_eq!(db.ids().len(), info.total_images + 120);
    db.flush().ok();
}

/// The bound-index staleness gauges: epoch lag and resync backlog spike
/// monotonically under write churn, and return to zero the moment an
/// indexed query rebuilds/re-syncs the slot — including under concurrent
/// readers driving the indexed path while a writer churns.
#[test]
fn staleness_gauges_zero_after_sync_and_spike_under_churn() {
    use mmdbms::prelude::*;
    let db = mmdbms::MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
    let gauge = |metric: &str| mmdbms::telemetry::global().gauge(metric).get();
    let base = db
        .insert_image(&RasterImage::filled(20, 20, Rgb::RED).unwrap())
        .unwrap();
    for i in 0..4u8 {
        db.insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 10, 10))
                .modify(Rgb::RED, Rgb::new(i, 200, 50))
                .build(),
        )
        .unwrap();
    }

    // Never-built slot: everything is pending.
    db.refresh_staleness_gauges();
    assert!(
        gauge("mmdb_boundidx_epoch_lag") > 0,
        "unbuilt slot must lag"
    );
    assert_eq!(gauge("mmdb_boundidx_resync_backlog"), 5);
    assert_eq!(gauge("mmdb_boundidx_entries_resident"), 0);

    // A full build via the indexed plan zeroes lag and backlog.
    let q = ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.1);
    db.query_range_with_plan(&q, QueryPlan::Indexed).unwrap();
    db.refresh_staleness_gauges();
    assert_eq!(gauge("mmdb_boundidx_epoch_lag"), 0);
    assert_eq!(gauge("mmdb_boundidx_resync_backlog"), 0);
    assert_eq!(gauge("mmdb_boundidx_entries_resident"), 5);

    // Write churn with no intervening sync: lag and backlog climb
    // monotonically (the storage epoch is monotone, the index stamp fixed).
    let (mut last_lag, mut last_backlog) = (0u64, 0u64);
    for i in 0..5u8 {
        db.insert_image(&RasterImage::filled(16, 16, Rgb::new(10 + i, 20, 30)).unwrap())
            .unwrap();
        db.refresh_staleness_gauges();
        let (lag, backlog) = (
            gauge("mmdb_boundidx_epoch_lag"),
            gauge("mmdb_boundidx_resync_backlog"),
        );
        assert!(lag > last_lag, "epoch lag must spike under churn");
        assert!(backlog > last_backlog, "backlog must grow under churn");
        (last_lag, last_backlog) = (lag, backlog);
    }

    // Concurrent churn + indexed readers: the gauges stay well-formed (no
    // refresh panics racing the sync path) and a final indexed query after
    // the dust settles returns them to zero.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..20u8 {
                db.insert_image(&RasterImage::filled(12, 12, Rgb::new(i, 90, 60)).unwrap())
                    .expect("insert under contention");
            }
            stop.store(true, Ordering::SeqCst);
        });
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                db.query_range_with_plan(&q, QueryPlan::Indexed)
                    .expect("indexed query under churn");
                db.refresh_staleness_gauges();
            }
        });
    });
    db.query_range_with_plan(&q, QueryPlan::Indexed).unwrap();
    db.refresh_staleness_gauges();
    assert_eq!(gauge("mmdb_boundidx_epoch_lag"), 0);
    assert_eq!(gauge("mmdb_boundidx_resync_backlog"), 0);
    assert_eq!(gauge("mmdb_boundidx_entries_resident"), 30);
}

#[test]
fn parallel_rbm_under_many_threads_is_stable() {
    let (db, _) = DatasetBuilder::new(Collection::Helmets)
        .total_images(60)
        .pct_edited(0.7)
        .seed(23)
        .build();
    let qp = QueryProcessor::new(&db);
    let queries = QueryGenerator::weighted_from_db(9, &db).batch(8);
    let reference: Vec<_> = queries
        .iter()
        .map(|q| qp.range_rbm(q).unwrap().sorted_results())
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for (q, expect) in queries.iter().zip(&reference) {
                    let got = qp.range_rbm(q).unwrap().sorted_results();
                    assert_eq!(&got, expect);
                }
            });
        }
    });
}
