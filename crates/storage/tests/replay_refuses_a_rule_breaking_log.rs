//! Replay enforces the reference rule the engine enforces on ingest: a log
//! that deletes an image a stored sequence names, or inserts a sequence
//! naming an image that is not stored, fails `open` with `Corrupt` naming
//! the record, instead of opening a catalog whose queries fail one by one.

use mmdb_durable::{Wal, WalOptions};
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::RgbQuantizer;
use mmdb_imaging::{RasterImage, Rect, Rgb};
use mmdb_storage::{StorageEngine, StorageError, WalRecord};
use std::path::PathBuf;

/// A database holding a base, a merge target, an edited image that pastes
/// into the target, and an unreferenced binary image.
struct Fixture {
    dir: PathBuf,
    base: ImageId,
    target: ImageId,
    spare: ImageId,
}

fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("mmdb_replay_rule_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = StorageEngine::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
    let image = |side, color| db.insert_binary(&RasterImage::filled(side, side, color).unwrap());
    let base = image(12, Rgb::RED).unwrap();
    let target = image(16, Rgb::GREEN).unwrap();
    let spare = image(8, Rgb::BLUE).unwrap();
    db.insert_edited(
        EditSequence::builder(base)
            .define(Rect::new(0, 0, 6, 6))
            .merge_into(target, 2, 2)
            .build(),
    )
    .unwrap();
    for id in [base, target] {
        assert!(matches!(
            db.delete(id),
            Err(StorageError::StillReferenced { dependents: 1, .. })
        ));
    }
    Fixture {
        dir,
        base,
        target,
        spare,
    }
}

impl Fixture {
    /// Appends what an engine without the rule could have logged next and
    /// returns its sequence number.
    fn log(&self, record: &WalRecord<'_>) -> u64 {
        let (mut wal, _) = Wal::open(&self.dir.join("wal"), WalOptions::default(), 0).unwrap();
        let seqno = wal.append(&record.encode()).unwrap();
        wal.sync().unwrap();
        seqno
    }

    /// `open` must fail with `Corrupt` naming record `seqno`.
    fn assert_refused(&self, seqno: u64) {
        match StorageEngine::open(&self.dir) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("WAL record {seqno}")), "{msg}");
            }
            Err(other) => panic!("expected Corrupt naming record {seqno}, got {other}"),
            Ok(_) => panic!("a rule-breaking log opened"),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn a_logged_delete_of_a_merge_target_fails_open() {
    let f = fixture("target");
    let seqno = f.log(&WalRecord::Delete { id: f.target });
    f.assert_refused(seqno);
}

#[test]
fn a_logged_delete_of_a_base_fails_open() {
    let f = fixture("base");
    let seqno = f.log(&WalRecord::Delete { id: f.base });
    f.assert_refused(seqno);
}

#[test]
fn a_logged_insert_naming_an_absent_target_fails_open() {
    let f = fixture("insert");
    let sequence = EditSequence::builder(f.base)
        .define(Rect::new(0, 0, 4, 4))
        .merge_into(ImageId::new(4242), 0, 0)
        .build();
    let seqno = f.log(&WalRecord::InsertEdited {
        id: ImageId::new(100),
        sequence: &sequence,
    });
    f.assert_refused(seqno);
}

#[test]
fn a_logged_delete_of_an_unreferenced_image_still_replays() {
    let f = fixture("spare");
    f.log(&WalRecord::Delete { id: f.spare });
    let db = StorageEngine::open(&f.dir).unwrap();
    assert!(!db.contains(f.spare));
    assert!(db.contains(f.base) && db.contains(f.target));
    assert_eq!(db.recovery_info().unwrap().replayed_records, 5);
    assert!(db.verify().is_empty());
}
