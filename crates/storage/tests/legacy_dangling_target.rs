//! A directory written before merge targets were delete-protected can hold
//! a log whose `Delete(target)` removed an image a stored sequence still
//! pastes into. Replay applies it unchecked, so the referrer names an image
//! that is gone. Its program then fails to compile — under RBM, BWM and the
//! bound index alike — with `UnknownImage(target)`, `verify` reports the
//! dangling reference, and deleting the referrer restores service.

use mmdb_boundidx::BoundIndex;
use mmdb_bwm::{execute, Method, QueryCtx};
use mmdb_durable::{Wal, WalOptions};
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::RgbQuantizer;
use mmdb_imaging::{RasterImage, Rect, Rgb};
use mmdb_rules::{ColorRangeQuery, RuleEngine, RuleError, RuleProfile};
use mmdb_storage::{StorageEngine, StorageError, WalRecord};

/// Runs `query` under RBM, BWM and a freshly built bound index.
fn every_plan(db: &StorageEngine, query: &ColorRangeQuery) -> Vec<Result<Vec<ImageId>, RuleError>> {
    let engine =
        RuleEngine::with_background(db.quantizer(), RuleProfile::Conservative, db.background());
    let mut answers = Vec::new();
    for method in [Method::Rbm, Method::Bwm] {
        let (view, mut ctx) = (db.read_view(), QueryCtx::default());
        let run = execute(
            method,
            view.structure(),
            query,
            &engine,
            &view,
            &view,
            &mut ctx,
        );
        answers.push(run.map(|()| ctx.into_outcome().sorted_results()));
    }
    let index = BoundIndex::build(
        RuleProfile::Conservative,
        db.quantizer(),
        db.background(),
        &db.binary_ids(),
        &db.edited_ids(),
        db,
        db,
        db.current_epoch(),
        1,
    );
    answers.push(index.map(|index| {
        let mut ids = index.lookup(query).ids;
        ids.sort_unstable();
        ids
    }));
    answers
}

#[test]
fn replayed_delete_of_a_merge_target_fails_closed_until_the_referrer_goes() {
    let dir = std::env::temp_dir().join(format!("mmdb_legacy_target_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (target, pasted, plain) = {
        let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let base = db
            .insert_binary(&RasterImage::filled(12, 12, Rgb::RED).unwrap())
            .unwrap();
        let target = db
            .insert_binary(&RasterImage::filled(16, 16, Rgb::GREEN).unwrap())
            .unwrap();
        let pasted = db
            .insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 6, 6))
                    .merge_into(target, 2, 2)
                    .build(),
            )
            .unwrap();
        let plain = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();
        assert!(matches!(
            db.delete(target),
            Err(StorageError::StillReferenced { id, dependents: 1 }) if id == target
        ));
        (target, pasted, plain)
    };
    // What an engine without the rule would have logged next.
    {
        let (mut wal, _) = Wal::open(&dir.join("wal"), WalOptions::default(), 0).unwrap();
        wal.append(&WalRecord::Delete { id: target }.encode())
            .unwrap();
        wal.sync().unwrap();
    }

    let db = StorageEngine::open(&dir).unwrap();
    assert!(!db.contains(target), "replay deletes unchecked");
    let query = ColorRangeQuery::new(db.quantizer().bin_of(Rgb::BLUE), 0.5, 1.0);
    for answer in every_plan(&db, &query) {
        assert!(
            matches!(answer, Err(RuleError::UnknownImage(id)) if id == target),
            "expected UnknownImage({target}), got {answer:?}"
        );
    }
    let problems = db.verify();
    assert!(
        problems.iter().any(|p| p.contains("E002")),
        "expected a dangling-merge-target finding, got {problems:?}"
    );

    // The blur may move any pixel into the queried bin.
    db.delete(pasted).unwrap();
    for answer in every_plan(&db, &query) {
        assert_eq!(answer.unwrap(), vec![plain]);
    }
    assert!(db.verify().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
