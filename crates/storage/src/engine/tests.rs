//! The engine's tests: the read/write API, recovery, compaction, and the
//! consistency check.

use super::*;
use mmdb_histogram::RgbQuantizer;
use mmdb_imaging::{draw, Rect};

fn engine() -> StorageEngine {
    StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()))
}

fn two_tone(w: u32, h: u32, top: Rgb, bottom: Rgb) -> RasterImage {
    let mut img = RasterImage::filled(w, h, bottom).unwrap();
    draw::fill_rect(&mut img, &Rect::new(0, 0, w as i64, h as i64 / 2), top);
    img
}

#[test]
fn insert_and_fetch_binary() {
    let db = engine();
    let img = two_tone(16, 16, Rgb::RED, Rgb::WHITE);
    let id = db.insert_binary(&img).unwrap();
    assert_eq!(db.kind(id).unwrap(), StoredKind::Binary);
    let back = db.raster(id).unwrap();
    assert_eq!(*back, img);
    // Histogram is exact.
    let q = RgbQuantizer::default_64();
    let h = db.histogram(id).unwrap();
    assert_eq!(h.count(q.bin_of(Rgb::RED)), 128);
    assert_eq!(h.total(), 256);
}

#[test]
fn insert_edited_and_instantiate() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let seq = EditSequence::builder(base)
        .modify(Rgb::RED, Rgb::BLUE)
        .build();
    let id = db.insert_edited(seq).unwrap();
    assert_eq!(db.kind(id).unwrap(), StoredKind::Edited);
    let img = db.raster(id).unwrap();
    assert_eq!(img.count_color(Rgb::BLUE), 32);
    assert_eq!(img.count_color(Rgb::RED), 0);
    // Histogram of the edited image instantiates correctly.
    let q = RgbQuantizer::default_64();
    assert_eq!(db.histogram(id).unwrap().count(q.bin_of(Rgb::BLUE)), 32);
    // Provenance.
    assert_eq!(db.base_of(id), Some(base));
    assert_eq!(db.children_of(base), vec![id]);
}

#[test]
fn edited_with_merge_target_resolves() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
        .unwrap();
    let target = db
        .insert_binary(&RasterImage::filled(10, 10, Rgb::WHITE).unwrap())
        .unwrap();
    let seq = EditSequence::builder(base)
        .define(Rect::new(0, 0, 3, 3))
        .merge_into(target, 2, 2)
        .build();
    let id = db.insert_edited(seq).unwrap();
    let img = db.raster(id).unwrap();
    assert_eq!(img.width(), 10);
    assert_eq!(img.count_color(Rgb::GREEN), 9);
}

#[test]
fn invalid_references_rejected() {
    let db = engine();
    let missing = EditSequence::builder(ImageId::new(99)).blur().build();
    assert!(matches!(
        db.insert_edited(missing),
        Err(StorageError::InvalidReference { .. })
    ));
    // Edited image as base: also rejected.
    let base = db
        .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let e1 = db
        .insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    assert!(matches!(
        db.insert_edited(EditSequence::builder(e1).blur().build()),
        Err(StorageError::InvalidReference { .. })
    ));
    // Missing merge target.
    let seq = EditSequence::builder(base)
        .merge_into(ImageId::new(1234), 0, 0)
        .build();
    assert!(matches!(
        db.insert_edited(seq),
        Err(StorageError::InvalidReference { .. })
    ));
}

#[test]
fn structurally_invalid_sequences_rejected() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    // Crop of a region that clips to empty: cannot instantiate or bound.
    let bad = EditSequence::builder(base)
        .define(mmdb_imaging::Rect::new(100, 100, 120, 120))
        .crop_to_region()
        .build();
    assert!(matches!(
        db.insert_edited(bad),
        Err(StorageError::InvalidSequence(_))
    ));
    // A valid crop is fine.
    let good = EditSequence::builder(base)
        .define(mmdb_imaging::Rect::new(1, 1, 5, 5))
        .crop_to_region()
        .build();
    assert!(db.insert_edited(good).is_ok());
    // Nothing half-inserted: only the good sequence is cataloged.
    assert_eq!(db.edited_ids().len(), 1);
}

#[test]
fn delete_rules() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let child = db
        .insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    assert!(matches!(
        db.delete(base),
        Err(StorageError::StillReferenced { dependents: 1, .. })
    ));
    db.delete(child).unwrap();
    db.delete(base).unwrap();
    assert!(!db.contains(base));
    assert!(matches!(db.delete(base), Err(StorageError::NotFound(_))));

    // A merge target is protected like a base, and a refused delete
    // changes nothing.
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let target = db
        .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
        .unwrap();
    let paste = |onto: ImageId, into: ImageId| {
        let seq = EditSequence::builder(onto)
            .define(Rect::new(0, 0, 3, 3))
            .merge_into(into, 1, 1)
            .build();
        db.insert_edited(seq).unwrap()
    };
    let refused = |id: ImageId, dependents: usize| {
        let (epoch, ids) = (db.current_epoch(), db.ids());
        let refusal = StorageError::StillReferenced { id, dependents };
        assert_eq!(db.delete(id).unwrap_err().to_string(), refusal.to_string());
        assert_eq!((db.current_epoch(), db.ids()), (epoch, ids));
    };
    let pasted = paste(base, target);
    refused(target, 1);
    refused(base, 1);
    // An image whose merge target is also its base names it once.
    let looped = paste(target, target);
    refused(target, 2);
    db.delete(pasted).unwrap();
    refused(target, 1);
    db.delete(base).unwrap();
    db.delete(looped).unwrap();
    db.delete(target).unwrap();
    assert!(db.ids().is_empty());
}

#[test]
fn raster_cache_hits() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(32, 32, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let _ = db.raster(base).unwrap();
    let _ = db.raster(base).unwrap();
    let s = db.stats();
    assert!(s.cache_hits >= 1, "stats: {s:?}");
}

#[test]
fn stats_space_saving() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(64, 64, Rgb::RED, Rgb::WHITE))
        .unwrap();
    for _ in 0..5 {
        db.insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 10, 10))
                .modify(Rgb::RED, Rgb::GREEN)
                .build(),
        )
        .unwrap();
    }
    let s = db.stats();
    assert_eq!(s.binary_count, 1);
    assert_eq!(s.edited_count, 5);
    let factor = s.space_saving_factor().unwrap();
    assert!(factor > 50.0, "space saving factor {factor}");
}

/// A background snapshot and a `flush` may run at once: both commit,
/// and the directory reopens.
#[test]
fn concurrent_snapshots_all_commit() {
    let dir = std::env::temp_dir().join(format!("mmdb_engine_snaps_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
    db.insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..100 {
                    db.snapshot_now().unwrap();
                }
            });
        }
    });
    drop(db);
    assert_eq!(StorageEngine::open(&dir).unwrap().stats().binary_count, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_roundtrip() {
    let dir = std::env::temp_dir().join(format!("mmdb_engine_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (base, edited, img) = {
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let img = two_tone(12, 12, Rgb::BLUE, Rgb::WHITE);
        let base = db.insert_binary(&img).unwrap();
        let edited = db
            .insert_edited(
                EditSequence::builder(base)
                    .modify(Rgb::BLUE, Rgb::RED)
                    .build(),
            )
            .unwrap();
        db.flush().unwrap();
        (base, edited, img)
    };
    let db = StorageEngine::open(&dir).unwrap();
    assert_eq!(*db.raster(base).unwrap(), img);
    let e = db.raster(edited).unwrap();
    assert_eq!(e.count_color(Rgb::RED), 72);
    assert_eq!(db.children_of(base), vec![edited]);
    assert_eq!(db.quantizer().describe(), "rgb-uniform/4");
    // Creating over an existing database is refused.
    assert!(StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_unflushed_mutations() {
    let dir = std::env::temp_dir().join(format!("mmdb_replay_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let img = two_tone(10, 10, Rgb::GREEN, Rgb::BLACK);
    let (base, edited, doomed) = {
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let base = db.insert_binary(&img).unwrap();
        let edited = db
            .insert_edited(
                EditSequence::builder(base)
                    .modify(Rgb::GREEN, Rgb::RED)
                    .build(),
            )
            .unwrap();
        let doomed = db
            .insert_binary(&two_tone(6, 6, Rgb::BLUE, Rgb::WHITE))
            .unwrap();
        db.delete(doomed).unwrap();
        // No flush: everything after the initial empty snapshot lives
        // only in the WAL.
        (base, edited, doomed)
    };
    let db = StorageEngine::open(&dir).unwrap();
    let info = db.recovery_info().unwrap();
    assert_eq!(info.replayed_records, 4, "{info:?}");
    assert_eq!(info.torn_bytes, 0);
    assert_eq!(*db.raster(base).unwrap(), img);
    assert_eq!(db.children_of(base), vec![edited]);
    assert!(!db.contains(doomed));
    // Epoch resumes at the WAL position: mutations keep logging.
    assert_eq!(db.current_epoch(), 4);
    let next = db.insert_binary(&img).unwrap();
    assert!(
        next.raw() > doomed.raw(),
        "id allocator advanced past replayed ids"
    );
    assert!(db.verify().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_is_tolerated() {
    let dir = std::env::temp_dir().join(format!("mmdb_torn_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let img = two_tone(8, 8, Rgb::RED, Rgb::WHITE);
    {
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        db.insert_binary(&img).unwrap();
        db.insert_binary(&two_tone(8, 8, Rgb::BLUE, Rgb::WHITE))
            .unwrap();
    }
    // Tear the final record mid-frame, as a crash mid-append would.
    let (seg, _) = mmdb_durable::wal::list_segments(&dir.join("wal"))
        .unwrap()
        .pop()
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let db = StorageEngine::open(&dir).unwrap();
    let info = db.recovery_info().unwrap();
    assert!(info.torn_bytes > 0, "{info:?}");
    assert_eq!(info.replayed_records, 1);
    assert_eq!(db.ids().len(), 1);
    assert_eq!(*db.raster(ImageId::new(1)).unwrap(), img);
    assert!(db.verify().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn directory_without_meta_is_not_a_database() {
    let dir = std::env::temp_dir().join(format!("mmdb_nometa_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // Stray files do not make a database; only the meta header does.
    std::fs::write(dir.join("blobs.mmdb"), b"").unwrap();
    match StorageEngine::open(&dir) {
        Err(StorageError::Corrupt(msg)) => assert!(msg.contains("no database at"), "{msg}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert!(!dir.join("meta").exists(), "a refused open writes nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_is_crash_safe_via_generations() {
    let dir = std::env::temp_dir().join(format!("mmdb_gen_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
    let mut keep = Vec::new();
    for i in 0..6u8 {
        let img = two_tone(12, 12, Rgb::new(i * 30, 0, 0), Rgb::WHITE);
        let id = db.insert_binary(&img).unwrap();
        if i % 2 == 0 {
            keep.push((id, img));
        } else {
            db.delete(id).unwrap();
        }
    }
    db.compact().unwrap();
    assert!(
        dir.join("blobs-1.mmdb").exists(),
        "compaction writes the next generation"
    );
    // Both generations coexist while a retained snapshot still
    // references generation 0 (the fallback snapshot must stay
    // loadable)...
    assert!(dir.join("blobs.mmdb").exists(), "old generation retained");
    // ...and once every retained snapshot has moved past it, the old
    // generation is garbage-collected.
    db.insert_binary(&two_tone(4, 4, Rgb::GREEN, Rgb::BLACK))
        .unwrap();
    db.flush().unwrap();
    assert!(!dir.join("blobs.mmdb").exists(), "old generation GC'd");
    drop(db);
    let db = StorageEngine::open(&dir).unwrap();
    for (id, img) in &keep {
        assert_eq!(&*db.raster(*id).unwrap(), img);
    }
    assert!(db.verify().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_resolver_binary_only() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let edited = db
        .insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    assert!(db.info(base).is_some());
    assert!(db.info(edited).is_none());
    assert!(db.info(ImageId::new(999)).is_none());
    let info = db.info(base).unwrap();
    assert_eq!(info.width, 4);
    assert_eq!(info.histogram.total(), 16);
}

#[test]
fn compact_reclaims_holes_and_preserves_data() {
    let dir = std::env::temp_dir().join(format!("mmdb_compact_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
    let mut keep = Vec::new();
    let mut drop_ids = Vec::new();
    for i in 0..10u8 {
        let img = two_tone(16, 16, Rgb::new(i * 20, 0, 0), Rgb::WHITE);
        let id = db.insert_binary(&img).unwrap();
        if i % 2 == 0 {
            keep.push((id, img));
        } else {
            drop_ids.push(id);
        }
    }
    for id in drop_ids {
        db.delete(id).unwrap();
    }
    let before = db.stats().binary_bytes;
    let reclaimed = db.compact().unwrap();
    assert!(reclaimed > 0, "interleaved deletes must leave holes");
    // All kept rasters are intact, bit-exact.
    for (id, img) in &keep {
        assert_eq!(&*db.raster(*id).unwrap(), img);
    }
    assert_eq!(db.stats().binary_bytes, before);
    assert!(db.verify().is_empty(), "compacted db passes fsck");
    // Survives reopen.
    db.flush().unwrap();
    drop(db);
    let db = StorageEngine::open(&dir).unwrap();
    for (id, img) in &keep {
        assert_eq!(&*db.raster(*id).unwrap(), img);
    }
    assert!(db.verify().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_in_memory_database() {
    let db = engine();
    let a = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let b = db
        .insert_binary(&two_tone(8, 8, Rgb::GREEN, Rgb::WHITE))
        .unwrap();
    let child = db
        .insert_edited(EditSequence::builder(b).blur().build())
        .unwrap();
    db.delete(a).unwrap();
    let reclaimed = db.compact().unwrap();
    assert!(reclaimed > 0);
    // Provenance links survive the catalog rewrite.
    assert_eq!(db.children_of(b), vec![child]);
    assert!(db.raster(child).is_ok());
    assert!(db.verify().is_empty());
}

#[test]
fn verify_healthy_database() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let target = db
        .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
        .unwrap();
    db.insert_edited(
        EditSequence::builder(base)
            .define(mmdb_imaging::Rect::new(0, 0, 4, 4))
            .merge_into(target, 1, 1)
            .build(),
    )
    .unwrap();
    assert_eq!(db.verify(), Vec::<String>::new());
}

#[test]
fn verify_detects_corrupted_blob() {
    let dir = std::env::temp_dir().join(format!("mmdb_fsck_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        db.insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
            .unwrap();
        db.flush().unwrap();
    }
    // Flip pixel bytes in the blob file (the PPM body), corrupting the
    // stored raster relative to the cataloged histogram.
    let blob_path = dir.join("blobs.mmdb");
    let mut bytes = std::fs::read(&blob_path).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 24..] {
        *b ^= 0xFF;
    }
    std::fs::write(&blob_path, &bytes).unwrap();
    let db = StorageEngine::open(&dir).unwrap();
    let problems = db.verify();
    assert!(
        problems.iter().any(|p| p.contains("stale")),
        "expected a stale-histogram finding, got {problems:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_validation_rejects_errors_and_records_lints() {
    mmdb_analysis::register_metrics();
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    // Error-level: non-affine Mutate (projective bottom row).
    let mut m = mmdb_editops::Matrix3::IDENTITY;
    m.m[2][0] = 0.5;
    let bad = EditSequence::builder(base).mutate(m).build();
    let e007 = mmdb_telemetry::global().counter(r#"mmdb_analysis_diagnostics_total{code="E007"}"#);
    let before = e007.get();
    let err = db.insert_edited(bad).unwrap_err();
    assert!(e007.get() > before, "the refusal's code is counted");
    match err {
        StorageError::InvalidSequence(msg) => {
            assert!(msg.contains("E007"), "expected the lint code, got: {msg}");
        }
        other => panic!("expected InvalidSequence, got {other:?}"),
    }
    // Warn-level findings (a dead Define) do not block the insert.
    let warned = EditSequence::builder(base)
        .define(Rect::new(0, 0, 2, 2))
        .define(Rect::new(0, 0, 4, 4))
        .blur()
        .build();
    assert!(db.insert_edited(warned).is_ok());
    let text = mmdb_telemetry::global().render_prometheus();
    assert!(
        text.contains(r#"mmdb_analysis_diagnostics_total{code="E007"}"#),
        "{text}"
    );
}

/// Ingest compiles a sequence only to validate it: the cell stays empty
/// until the first use compiles the program in that caller's order.
#[test]
fn ingest_keeps_no_program() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let target = db
        .insert_binary(&two_tone(6, 6, Rgb::GREEN, Rgb::BLACK))
        .unwrap();
    let clustered = EditSequence::builder(base).blur().build();
    let loose = EditSequence::builder(base)
        .define(Rect::new(0, 0, 3, 3))
        .merge_into(target, 2, 2)
        .build();
    for sequence in [clustered, loose] {
        let id = db.insert_edited(sequence).unwrap();
        let filled = || db.read_view().structure().holds_program(id, base);
        assert!(!filled(), "ingest keeps no program");
        db.bound_program(id).unwrap();
        assert!(filled(), "the first use keeps it");
    }
}

#[test]
fn verify_reports_analyzer_errors_with_lint_codes() {
    let db = engine();
    let base = db
        .insert_binary(&two_tone(8, 8, Rgb::RED, Rgb::WHITE))
        .unwrap();
    db.insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    // Ingest refuses a projective Mutate (E007); to simulate corruption
    // it is spliced into the catalog directly.
    {
        let mut m = mmdb_editops::Matrix3::IDENTITY;
        m.m[2][0] = 0.5;
        let mut inner = db.inner.write();
        let id = inner.catalog.allocate_id();
        inner.catalog.insert(
            id,
            CatalogEntry::edited(Arc::new(EditSequence::builder(base).mutate(m).build())),
        );
    }
    let problems = db.verify();
    assert!(
        problems.iter().any(|p| p.contains("E007")),
        "expected a non-affine-mutate finding, got {problems:?}"
    );
}

#[test]
fn ids_listing() {
    let db = engine();
    let b1 = db
        .insert_binary(&two_tone(4, 4, Rgb::RED, Rgb::WHITE))
        .unwrap();
    let b2 = db
        .insert_binary(&two_tone(4, 4, Rgb::GREEN, Rgb::WHITE))
        .unwrap();
    let e1 = db
        .insert_edited(EditSequence::builder(b1).blur().build())
        .unwrap();
    assert_eq!(db.ids(), vec![b1, b2, e1]);
    assert_eq!(db.binary_ids(), vec![b1, b2]);
    assert_eq!(db.edited_ids(), vec![e1]);
}
